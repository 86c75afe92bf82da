# Both engines from the command line: quickstart on each of the five
# workload presets, once on the plain per-cycle loop (--no-skip-ahead)
# and once on the fast engine, each engine in a directory of its own,
# must write byte-identical stats JSON and interval files. Run as
# `cmake -DCMD=<quickstart> -P engine_identity_cli.cmake` from the
# directory that should receive engine_plain/ and engine_fast/.
set(ENV{S64V_LOG_LEVEL} warn)
foreach(engine plain fast)
    file(REMOVE_RECURSE ${CMAKE_CURRENT_BINARY_DIR}/engine_${engine})
    file(MAKE_DIRECTORY ${CMAKE_CURRENT_BINARY_DIR}/engine_${engine})
endforeach()

foreach(workload SPECint95 SPECfp95 SPECint2000 SPECfp2000 TPC-C)
    foreach(engine plain fast)
        set(flags)
        if(engine STREQUAL plain)
            set(flags --no-skip-ahead)
        endif()
        execute_process(
            COMMAND ${CMD} workload=${workload} instrs=200000 ${flags}
                    --stats-json=${workload}.json
            WORKING_DIRECTORY ${CMAKE_CURRENT_BINARY_DIR}/engine_${engine}
            RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE log)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                    "${workload} on the ${engine} engine: ${rc}\n${log}")
        endif()
    endforeach()
    foreach(file ${workload}.json ${workload}.json.intervals.jsonl)
        set(plain ${CMAKE_CURRENT_BINARY_DIR}/engine_plain/${file})
        set(fast ${CMAKE_CURRENT_BINARY_DIR}/engine_fast/${file})
        file(SIZE ${plain} bytes)
        if(bytes EQUAL 0)
            message(FATAL_ERROR "${file}: the plain loop wrote nothing")
        endif()
        file(SHA256 ${plain} plain_sum)
        file(SHA256 ${fast} fast_sum)
        if(NOT plain_sum STREQUAL fast_sum)
            message(FATAL_ERROR "${file} differs between the engines: "
                                "${plain} vs ${fast}")
        endif()
    endforeach()
endforeach()
