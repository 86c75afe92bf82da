# Runs every trade-off study harness, the SMP system-balance study and
# Figure 19 at short lengths and checks that each exits 0 and prints
# every figure title it owns, and that Figure 19 verifies every model
# version; then checks that a harness refuses an argument it does not
# know. Run as
# `cmake -DBIN_DIR=<dir of the bench binaries> -P figure_harnesses.cmake`.
set(ENV{S64V_INSTRS} 20000)
set(ENV{S64V_SMP_INSTRS} 4000)
set(ENV{S64V_L2_INSTRS} 40000)

function(expect_figures harness)
    execute_process(COMMAND ${BIN_DIR}/${harness}
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "${harness}: exit ${rc}\n${err}")
    endif()
    foreach(title ${ARGN})
        string(FIND "${out}" "=== ${title}" at)
        if(at EQUAL -1)
            message(FATAL_ERROR "${harness} did not print '${title}':\n"
                                "${out}")
        endif()
    endforeach()
    set(printed "${out}" PARENT_SCOPE)
endfunction()

expect_figures(fig07_characteristics "Figure 7." "Single-pass CPI stack")
expect_figures(fig09_bht "Figure 9." "Figure 10.")
expect_figures(fig11_l1_tradeoff "Figure 11." "Figure 12." "Figure 13.")
expect_figures(fig14_l2_tradeoff "Figure 14." "Figure 15.")
expect_figures(fig16_prefetch "Figure 16." "Figure 17.")
expect_figures(ablation_smp_scaling "Ablation: TPC-C SMP scaling")
expect_figures(fig19_accuracy "Figure 19 (upper)." "Figure 19 (lower).")

# Every model version's runs pass the replay and golden-model checks:
# the upper table's "verified" cell reads ok on rows v1..v8.
foreach(v RANGE 1 8)
    if(NOT printed MATCHES "\nv${v}  +[0-9.]+%  +[0-9.]+%  +ok  ")
        message(FATAL_ERROR "fig19_accuracy: v${v} is not verified ok:\n"
                            "${printed}")
    endif()
endforeach()

# An argument the harness does not know is fatal and named: it must
# not run the study on the defaults.
execute_process(COMMAND ${BIN_DIR}/fig07_characteristics --cpi_stack
                RESULT_VARIABLE rc OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
string(FIND "${err}" "unknown argument '--cpi_stack'" at)
if(rc EQUAL 0 OR at EQUAL -1)
    message(FATAL_ERROR "fig07_characteristics --cpi_stack: exit ${rc}\n"
                        "${err}")
endif()
