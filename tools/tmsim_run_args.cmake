# CLI strictness regression (ctest: tmsim_run_args).
# The enum flags used to map any value they did not recognise to a
# default: "--conflict eagr" quietly ran lazy. Unknown values must now
# fail and name the flag; the removed --policy must point at
# --contention, and the removed --store must be refused.

foreach(flag version conflict nesting scheme granularity)
    execute_process(
        COMMAND ${TMSIM_RUN} --kernel contend --cpus 2 --${flag} bogus
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET)
    if(rc EQUAL 0)
        message(FATAL_ERROR "--${flag} bogus was accepted (rc=0)")
    endif()
    if(NOT err MATCHES "--${flag}")
        message(FATAL_ERROR
                "--${flag} bogus diagnostic does not name the flag: ${err}")
    endif()
endforeach()

execute_process(
    COMMAND ${TMSIM_RUN} --kernel contend --cpus 2 --policy older
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR "--policy was accepted (rc=0)")
endif()
if(NOT err MATCHES "--contention requester\\|timestamp")
    message(FATAL_ERROR "--policy diagnostic gives no --contention hint: ${err}")
endif()

execute_process(
    COMMAND ${TMSIM_RUN} --kernel contend --cpus 2 --store dense
    RESULT_VARIABLE rc
    ERROR_QUIET OUTPUT_QUIET)
if(rc EQUAL 0)
    message(FATAL_ERROR "--store was accepted (rc=0)")
endif()

# Every accepted spelling still parses and runs.
execute_process(
    COMMAND ${TMSIM_RUN} --kernel contend --cpus 2 --quiet
            --version undolog --conflict eager --nesting flatten
            --scheme multitrack --granularity word --contention timestamp
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "valid enum values rejected (rc=${rc}): ${err}")
endif()
execute_process(
    COMMAND ${TMSIM_RUN} --kernel contend --cpus 2 --quiet
            --version wb --conflict lazy --nesting full
            --scheme assoc --granularity line
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "valid enum values rejected (rc=${rc}): ${err}")
endif()
