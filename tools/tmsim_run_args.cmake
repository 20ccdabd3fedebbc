# CLI strictness regression (ctest: tmsim_run_args).
# The enum flags used to map any value they did not recognise to a
# default: "--conflict eagr" quietly ran lazy. Unknown values must now
# fail and name the flag; the removed --policy must point at
# --contention, and the removed --store must be refused. The contention
# and capacity flags of tmsim_run, tmsim_fuzz and tmsim_sweep must also
# list the accepted values. A malformed TMSIM_WATCH_ADDR must warn once
# per process, not once per Machine.

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

# Runs ARGN, which must fail with "FLAG: unknown value 'bogus'
# (expected VALUES)"; VALUES is a regex.
function(expect_enum_diagnostic flag values)
    execute_process(
        COMMAND ${ARGN}
        RESULT_VARIABLE rc
        ERROR_VARIABLE err
        OUTPUT_QUIET)
    if(rc EQUAL 0)
        message(FATAL_ERROR "${ARGN}: accepted (rc=0)")
    endif()
    if(NOT err MATCHES "${flag}: unknown value 'bogus' \\(expected ${values}\\)")
        message(FATAL_ERROR
                "${ARGN}: diagnostic does not name ${flag} and its "
                "values: ${err}")
    endif()
endfunction()

set(policies "requester\\|timestamp\\|karma\\|polite\\|hybrid")
set(capmodes "abort\\|overflow")
expect_enum_diagnostic(--contention "${policies}"
    ${TMSIM_RUN} --kernel contend --cpus 2 --contention bogus)
expect_enum_diagnostic(--capacity-mode "${capmodes}"
    ${TMSIM_RUN} --kernel contend --cpus 2 --capacity-mode bogus)
expect_enum_diagnostic(--contention "${policies}"
    ${TMSIM_FUZZ} --seeds 1 --quiet --contention bogus)
expect_enum_diagnostic(--capacity-mode "${capmodes}"
    ${TMSIM_SWEEP} --kernel contend --quiet --capacity-mode bogus)

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

# Ten seeds build forty Machines; the environment is parsed once.
execute_process(
    COMMAND ${CMAKE_COMMAND} -E env TMSIM_WATCH_ADDR=zz
            ${TMSIM_FUZZ} --seeds 10 --contention timestamp
    RESULT_VARIABLE rc
    ERROR_VARIABLE err
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "TMSIM_WATCH_ADDR=zz tmsim_fuzz failed (rc=${rc}): ${err}")
endif()
string(REGEX MATCHALL "TMSIM_WATCH_ADDR='zz' is not a valid address"
       warnings "${err}")
list(LENGTH warnings nwarn)
if(NOT nwarn EQUAL 1)
    message(FATAL_ERROR
            "TMSIM_WATCH_ADDR=zz warned ${nwarn} times, not once: ${err}")
endif()
