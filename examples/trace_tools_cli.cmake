# Drives the trace_tools command line end to end: generate a trace,
# sample it with a length that would wrap skip + len, then inspect
# and replay the sample. Fails on the first step that does not exit
# 0. Run as `cmake -DTOOL=<trace_tools> -P trace_tools_cli.cmake`
# from the directory that should receive the trace files.
function(step)
    execute_process(COMMAND ${TOOL} ${ARGN} RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        string(REPLACE ";" " " args "${ARGN}")
        message(FATAL_ERROR "trace_tools ${args}: ${rc}")
    endif()
endfunction()

step(mode=gen workload=SPECint95 instrs=5000 out=cli.trc)
step(mode=sample in=cli.trc skip=1000 len=18446744073709551615
     out=cli_sample.trc)
step(mode=info in=cli_sample.trc)
step(mode=run in=cli_sample.trc)
