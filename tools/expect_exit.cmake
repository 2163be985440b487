# Runs `cen` and checks its exit code, output and an output file:
#   cmake -DCEN=<binary> -DARGS=a,b,... -DRC=<code> [-DMATCH=<regex>]
#         [-DFILE=<path> [-DFILE_MATCH=<regex>] [-DFILE_SAME=<path>]]
#         [-DEMPTY_STDOUT=ON] -P expect_exit.cmake
# Passes when `cen ARGS` exits RC, its stdout and stderr together match
# MATCH, its stdout is empty under EMPTY_STDOUT, and FILE (removed first)
# was written non-empty, its contents matching FILE_MATCH and equal to
# FILE_SAME byte for byte.
string(REPLACE "," ";" ARGS "${ARGS}")
string(REPLACE ";" " " command "cen ${ARGS}")
if(FILE)
  file(REMOVE ${FILE})
endif()
if(EMPTY_STDOUT)
  execute_process(COMMAND ${CEN} ${ARGS} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE stdout ERROR_VARIABLE out)
  string(APPEND out "${stdout}")
else()
  execute_process(COMMAND ${CEN} ${ARGS} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE out)
endif()
if(NOT rc STREQUAL RC)
  message(FATAL_ERROR "${command} exited ${rc}, expected ${RC}:\n${out}")
endif()
if(EMPTY_STDOUT AND NOT stdout STREQUAL "")
  message(FATAL_ERROR "${command} wrote to stdout, expected nothing:\n${stdout}")
endif()
if(MATCH AND NOT out MATCHES "${MATCH}")
  message(FATAL_ERROR "${command} output does not match '${MATCH}':\n${out}")
endif()
if(FILE)
  set(size 0)
  if(EXISTS ${FILE})
    file(SIZE ${FILE} size)
  endif()
  if(NOT size GREATER 0)
    message(FATAL_ERROR "${command} left ${FILE} missing or empty")
  endif()
  if(FILE_MATCH)
    file(READ ${FILE} contents)
    if(NOT contents MATCHES "${FILE_MATCH}")
      message(FATAL_ERROR "${command} wrote ${FILE}, which does not match '${FILE_MATCH}'")
    endif()
  endif()
  if(FILE_SAME)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${FILE} ${FILE_SAME}
                    RESULT_VARIABLE differ)
    if(differ)
      message(FATAL_ERROR "${command} wrote ${FILE}, which differs from ${FILE_SAME}")
    endif()
  endif()
endif()
