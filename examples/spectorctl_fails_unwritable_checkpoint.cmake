# A checkpoint write that fails must end `spectorctl run` with the
# program's own error line and exit 1. The write happens on an ingest
# shard's consumer thread; an exception left uncaught there aborts the
# process without that line.
#
# A first run learns both apps' shas from the names of its bundles. A
# second run, into a fresh directory, finds a directory planted where each
# app's temporary bundle (<sha>.spab.tmp) goes, so no write can open its
# file.
#
# Usage: cmake -DSPECTORCTL=<spectorctl> -DWORK=<scratch dir>
#              -P spectorctl_fails_unwritable_checkpoint.cmake

file(REMOVE_RECURSE ${WORK})

execute_process(
  COMMAND ${SPECTORCTL} run --apps 2 --workers 1 --out ${WORK}/first
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_QUIET)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "first run: exit ${status}")
endif()

# One <sha>.spab per app.
file(GLOB bundles RELATIVE ${WORK}/first ${WORK}/first/*.spab)
list(LENGTH bundles count)
if(NOT count EQUAL 2)
  message(FATAL_ERROR "first run wrote ${count} bundles, expected 2")
endif()
foreach(bundle IN LISTS bundles)
  file(MAKE_DIRECTORY ${WORK}/second/${bundle}.tmp)
endforeach()

execute_process(
  COMMAND ${SPECTORCTL} run --apps 2 --workers 1 --out ${WORK}/second
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE errors)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "second run: exit ${status}, expected 1\n${errors}")
endif()
if(NOT errors MATCHES "spectorctl: recovery: cannot write [^\n]*[0-9a-f]\\.spab\\.tmp")
  message(FATAL_ERROR "second run: no checkpoint error line\n${errors}")
endif()
