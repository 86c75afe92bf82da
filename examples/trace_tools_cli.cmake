# Drives the trace_tools command line end to end: generate a trace,
# sample it with a length that would wrap skip + len, then inspect
# the sample (the Reverse Tracer must round-trip it) and replay it.
# Fails on the first step that does not exit 0. Then a misspelt key
# must stop the tool before it writes anything. Run as
# `cmake -DTOOL=<trace_tools> -P trace_tools_cli.cmake` from the
# directory that should receive the trace files.
function(step)
    execute_process(COMMAND ${TOOL} ${ARGN} RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out)
    if(NOT rc EQUAL 0)
        string(REPLACE ";" " " args "${ARGN}")
        message(FATAL_ERROR "trace_tools ${args}: ${rc}")
    endif()
    set(printed "${out}" PARENT_SCOPE)
endfunction()

step(mode=gen workload=SPECint95 instrs=5000 out=cli.trc)
step(mode=sample in=cli.trc skip=1000 len=18446744073709551615
     out=cli_sample.trc)
step(mode=info in=cli_sample.trc)
string(FIND "${printed}" "reverse tracer: round-trip exact" at)
if(at EQUAL -1)
    message(FATAL_ERROR "mode=info printed no exact reverse-tracer "
                        "round trip:\n${printed}")
endif()
step(mode=run in=cli_sample.trc)

# "mod" is not a key: the tool must not fall back to mode=gen and
# write its default output file.
file(REMOVE trace.s64vtrc)
execute_process(COMMAND ${TOOL} mod=run in=cli.trc
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
string(FIND "${err}" "'mod=run'" at)
if(rc EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "trace_tools mod=run: exit ${rc}\n${err}")
endif()
if(EXISTS trace.s64vtrc)
    message(FATAL_ERROR "trace_tools mod=run wrote trace.s64vtrc")
endif()
