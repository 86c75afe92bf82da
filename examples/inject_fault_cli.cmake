# The --inject-fault contract from the command line. Every fault acts
# on the simulated machine or on the process at a cycle:
#   - a file-damage kind is refused by name before anything runs
#     (nonzero exit, the kind on stderr, nothing on stdout);
#   - kill-point dies with exit 86 and leaves no stats file;
#   - stall trips the watchdog, which aborts and leaves a crash
#     document of one crash naming the fault.
# A sweep has no emergency checkpoints: --watchdog-escalate is refused
# by name like any other unknown argument.
# Run as `cmake -DCMD=<quickstart> -DSWEEP=<design_space_sweep> -P
# inject_fault_cli.cmake`; the files land in the working directory.
foreach(kind trace-corrupt corrupt-ckpt truncate-journal)
    execute_process(COMMAND ${CMD} instrs=20000 --inject-fault=${kind}:1
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    string(FIND "${err}" "'${kind}'" at)
    if(rc EQUAL 0 OR at EQUAL -1)
        message(FATAL_ERROR "--inject-fault=${kind}:1: exit ${rc}, the "
                            "kind is not named:\n${err}")
    endif()
    if(NOT out STREQUAL "")
        message(FATAL_ERROR "--inject-fault=${kind}:1 printed before "
                            "refusing the kind:\n${out}")
    endif()
endforeach()

file(REMOVE k.json)
execute_process(COMMAND ${CMD} instrs=20000 --inject-fault=kill-point:5000
                        --stats-json=k.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc EQUAL 86)
    message(FATAL_ERROR "kill-point:5000: expected exit 86, got ${rc}")
endif()
if(EXISTS k.json)
    message(FATAL_ERROR "kill-point:5000 left a stats file behind")
endif()

file(REMOVE c.json)
execute_process(COMMAND ${CMD} instrs=20000 --inject-fault=stall:3000
                        --watchdog=2000 --crash-report=c.json
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(NOT rc STREQUAL "Subprocess aborted")
    message(FATAL_ERROR "stall:3000: expected the watchdog's abort, "
                        "got '${rc}'")
endif()
if(NOT EXISTS c.json)
    message(FATAL_ERROR "stall:3000 left no crash report")
endif()
file(READ c.json report)
string(FIND "${report}" "\"injected_fault\":{\"kind\":\"stall\",\"at\":3000}"
       at)
if(at EQUAL -1)
    message(FATAL_ERROR "the crash report does not name the fault:\n"
                        "${report}")
endif()
string(FIND "${report}" "\"schema\": \"s64v-crash-triage-1\"" schema)
string(FIND "${report}" "\"count\": 1," count)
if(schema EQUAL -1 OR count EQUAL -1)
    message(FATAL_ERROR "the crash report is not a crash document of "
                        "one crash:\n${report}")
endif()

execute_process(COMMAND ${SWEEP} instrs=2000 --watchdog-escalate
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(FIND "${err}" "'--watchdog-escalate'" at)
if(rc EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "--watchdog-escalate: exit ${rc}, the argument "
                        "is not named:\n${err}")
endif()
if(NOT out STREQUAL "")
    message(FATAL_ERROR "--watchdog-escalate printed before refusing "
                        "the argument:\n${out}")
endif()
