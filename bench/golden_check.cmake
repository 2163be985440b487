# Run one reproduction bench and compare its stdout byte-for-byte with the
# committed golden. Invoked by the `repro`-labelled ctest entries:
#   cmake -DBENCH=<binary> -DGOLDEN=<file> -DACTUAL=<file> -P golden_check.cmake
# On a mismatch the bench's output is left at ACTUAL for diffing. A moved
# number is a deliberate golden update: copy ACTUAL over GOLDEN and record
# the change in CHANGES.md.
execute_process(COMMAND ${BENCH} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT out STREQUAL expected)
  file(WRITE ${ACTUAL} "${out}")
  message(FATAL_ERROR "${BENCH} output differs from ${GOLDEN}; actual output in ${ACTUAL}")
endif()
