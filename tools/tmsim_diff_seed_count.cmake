# Stats accounting regression (ctest: tmsim_diff_seed_count).
# diff.seeds must count the seeds tmsim_diff actually diffed, not the
# --seeds it was asked for. A 1-tick simulator limit makes every seed
# fail, so a 20-seed request stops after the fifth failure.

set(stats "${WORK_DIR}/diff_seed_count.stats.json")
file(REMOVE ${stats})
execute_process(
    COMMAND ${TMSIM_DIFF} --seeds 20 --max-ticks 1 --quiet
            --json-stats ${stats} --out-dir ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
if(rc EQUAL 0)
    message(FATAL_ERROR "every seed should fail at --max-ticks 1: ${out}")
endif()
if(NOT out MATCHES "stopping after 5 failures")
    message(FATAL_ERROR "run did not stop after 5 failures: ${out}${err}")
endif()

file(READ ${stats} json)
string(JSON seeds GET "${json}" counters diff.seeds)
string(JSON failing GET "${json}" counters diff.seeds_failing)
if(NOT seeds EQUAL 5 OR NOT failing EQUAL 5)
    message(FATAL_ERROR "expected diff.seeds and diff.seeds_failing to "
                        "be 5, got ${seeds} and ${failing}")
endif()
