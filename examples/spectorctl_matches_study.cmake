# The study store end to end. `spectorctl run` must write byte-identical
# directories at 1 and 3 workers, and `spectorctl analyze` over one of them
# must render the figure CSVs of the study that measured it: the same
# files, byte for byte, as large_scale_study over the same world.
#
# Usage: cmake -DSPECTORCTL=<spectorctl> -DSTUDY=<large_scale_study>
#              -DWORK=<scratch dir> -P spectorctl_matches_study.cmake

file(REMOVE_RECURSE ${WORK})

function(run_or_fail)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE status OUTPUT_QUIET)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "exit ${status}: ${ARGN}")
  endif()
endfunction()

# Both trees hold the same relative file names, at least one, and every
# file equals its namesake.
function(expect_same_tree left right)
  file(GLOB_RECURSE leftFiles RELATIVE ${left} ${left}/*)
  file(GLOB_RECURSE rightFiles RELATIVE ${right} ${right}/*)
  list(SORT leftFiles)
  list(SORT rightFiles)
  if(NOT leftFiles)
    message(FATAL_ERROR "${left} holds no files")
  endif()
  if(NOT leftFiles STREQUAL rightFiles)
    message(FATAL_ERROR "${left} holds [${leftFiles}]\n"
                        "${right} holds [${rightFiles}]")
  endif()
  foreach(name IN LISTS leftFiles)
    execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                            ${left}/${name} ${right}/${name}
                    RESULT_VARIABLE differs)
    if(differs)
      message(FATAL_ERROR "${left}/${name} differs from ${right}/${name}")
    endif()
  endforeach()
endfunction()

run_or_fail(${SPECTORCTL} run --apps 12 --workers 1 --out ${WORK}/workers1)
run_or_fail(${SPECTORCTL} run --apps 12 --workers 3 --out ${WORK}/workers3)
expect_same_tree(${WORK}/workers1 ${WORK}/workers3)

run_or_fail(${SPECTORCTL} analyze --in ${WORK}/workers1
            --csv ${WORK}/analyze_csv)
run_or_fail(${STUDY} 12 2 0.15 ${WORK}/study_csv)
expect_same_tree(${WORK}/analyze_csv ${WORK}/study_csv)
