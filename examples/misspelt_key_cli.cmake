# Runs an example with a misspelt key and checks that it stops before
# it simulates: a nonzero exit, the key named on stderr, and no result
# line on stdout. Run as
# `cmake -DCMD=<example> -DARG=<key=value> -P misspelt_key_cli.cmake`.
execute_process(COMMAND ${CMD} ${ARG}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "'${ARG}'" at)
if(rc EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "${CMD} ${ARG}: exit ${rc}, the key is not "
                        "named:\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "${CMD} ${ARG} printed before refusing the key:\n"
                        "${out}")
endif()
