# Both engines from the command line on SMP machines, where the
# warm-up boundary waits for the slowest of several cores: the TPC-C
# system-balance study (1 to 16 CPUs) must print the same tables on
# the plain per-cycle loop (--no-skip-ahead) and on the fast engine.
# Run as `cmake -DCMD=<ablation_smp_scaling> -P engine_identity_smp_cli.cmake`.
set(ENV{S64V_SMP_INSTRS} 4000)
set(ENV{S64V_LOG_LEVEL} warn)
foreach(engine plain fast)
    set(flags)
    if(engine STREQUAL plain)
        set(flags --no-skip-ahead)
    endif()
    execute_process(COMMAND ${CMD} ${flags}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out_${engine}
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${engine} engine: exit ${rc}\n${err}")
    endif()
endforeach()
string(FIND "${out_plain}" "16P throughput" at)
if(at EQUAL -1)
    message(FATAL_ERROR "the plain loop printed no 16P row:\n${out_plain}")
endif()
if(NOT out_plain STREQUAL out_fast)
    message(FATAL_ERROR "stdout differs between the engines:\n"
                        "--- plain loop\n${out_plain}\n"
                        "--- fast engine\n${out_fast}")
endif()
