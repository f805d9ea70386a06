# Runs BINARY and compares its stdout with the file GOLDEN, byte for byte;
# fails when the binary exits nonzero or the output differs, and leaves the
# actual output beside the build's test files for diffing. Used by ctest:
#   cmake -DBINARY=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P golden_stdout.cmake
execute_process(COMMAND ${BINARY}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
file(WRITE ${ACTUAL} "${actual}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}; compare with "
                      "diff -u ${GOLDEN} ${ACTUAL}")
endif()
