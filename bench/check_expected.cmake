# Run one figure harness and compare its standard output with the
# copy checked in under bench/expected/. On a mismatch, print a
# unified diff (expected, then actual) and fail.
#
#   cmake -DHARNESS=<binary> -DEXPECTED=<file> -DACTUAL=<file>
#         -P check_expected.cmake
execute_process(COMMAND ${HARNESS} OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
    message(FATAL_ERROR "${HARNESS} exited with ${status}")
endif()
execute_process(COMMAND diff -u ${EXPECTED} ${ACTUAL}
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
    message(FATAL_ERROR
        "${HARNESS}: output differs from ${EXPECTED} (diff above). "
        "A change that moves a number updates the file and says why "
        "in CHANGES.md.")
endif()
