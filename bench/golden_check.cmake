# Runs a reproduction binary and byte-compares its stdout with goldens:
#   cmake -DBENCH=<binary> [-DARGS=a,b,...] -DOUT=<file>
#         [-DGOLDENS=<g1,g2,...> [-DCHECK=<gi>] -DACTUAL=<file>] -P golden_check.cmake
# BENCH, if given, runs with its stdout in OUT and must exit 0 (cenrepro exits 1
# on a broken claim). OUT must be the GOLDENS concatenated: the share of CHECK
# (default: the only golden) is compared, the last share running to the end of
# OUT, so a golden whose length moved shifts the shares after it. A mismatch
# leaves the share at ACTUAL; a moved number is a deliberate golden update.
string(REPLACE "," ";" ARGS "${ARGS}")
string(REPLACE "," ";" GOLDENS "${GOLDENS}")
if(DEFINED BENCH)
  execute_process(COMMAND ${BENCH} ${ARGS} OUTPUT_FILE ${OUT} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}")
  endif()
endif()
if(NOT GOLDENS)
  return()
elseif(NOT DEFINED CHECK)
  set(CHECK ${GOLDENS})
endif()
set(offset 0)
foreach(golden ${GOLDENS})
  file(READ ${golden} expected)
  string(LENGTH "${expected}" length)
  if(golden STREQUAL CHECK)
    break()
  endif()
  math(EXPR offset "${offset} + ${length}")
endforeach()
list(GET GOLDENS -1 last)
if(CHECK STREQUAL last)
  set(length -1)
endif()
file(READ ${OUT} out)
string(LENGTH "${out}" total)
set(actual "")
if(offset LESS_EQUAL total)
  string(SUBSTRING "${out}" ${offset} ${length} actual)
endif()
if(NOT actual STREQUAL expected)
  file(WRITE ${ACTUAL} "${actual}")
  message(FATAL_ERROR "output differs from ${CHECK}; actual output in ${ACTUAL}")
endif()
