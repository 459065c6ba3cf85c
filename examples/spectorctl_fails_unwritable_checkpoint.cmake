# A checkpoint write that fails must end `spectorctl run` with the
# program's own error line and exit 1. The write happens on an ingest
# shard's consumer thread; an exception left uncaught there aborts the
# process without that line.
#
# A first run learns app 0's sha from its manifest. A second run, into a
# fresh directory, finds a directory planted where app 0's temporary
# bundle (<sha>.spab.tmp) goes, so that one write cannot open its file.
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

# The compacted manifest holds one "<job index> <sha> ok" line per app.
file(STRINGS ${WORK}/first/manifest.spmf entry REGEX "^0 [0-9a-f]+ ok$")
string(REGEX REPLACE "^0 ([0-9a-f]+) ok$" "\\1" sha "${entry}")
if(NOT sha MATCHES "^[0-9a-f]+$")
  message(FATAL_ERROR "no job 0 in ${WORK}/first/manifest.spmf")
endif()

file(MAKE_DIRECTORY ${WORK}/second/${sha}.spab.tmp)
execute_process(
  COMMAND ${SPECTORCTL} run --apps 2 --workers 1 --out ${WORK}/second
  RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE errors)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "second run: exit ${status}, expected 1\n${errors}")
endif()
if(NOT errors MATCHES "spectorctl: recovery: cannot write [^\n]*${sha}\\.spab\\.tmp")
  message(FATAL_ERROR "second run: no error line for ${sha}\n${errors}")
endif()
