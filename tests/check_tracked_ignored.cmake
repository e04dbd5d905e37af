# Fails when a tracked file matches the ignore rules — a build tree or other
# generated output committed by mistake. Prints SKIP (which ctest maps to a
# skipped test) outside a git checkout or without git.
#
#   cmake -DSOURCE_DIR=<repo root> -P tests/check_tracked_ignored.cmake
find_program(GIT_EXECUTABLE git)
if(NOT GIT_EXECUTABLE)
  message("SKIP: git not found")
  return()
endif()
execute_process(
  COMMAND ${GIT_EXECUTABLE} -C ${SOURCE_DIR} rev-parse --is-inside-work-tree
  RESULT_VARIABLE in_repo OUTPUT_QUIET ERROR_QUIET)
if(NOT in_repo EQUAL 0)
  message("SKIP: ${SOURCE_DIR} is not a git checkout")
  return()
endif()
execute_process(
  COMMAND ${GIT_EXECUTABLE} -C ${SOURCE_DIR} ls-files -ci --exclude-standard
  OUTPUT_VARIABLE tracked_ignored
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "git ls-files failed (${rc})")
endif()
if(NOT tracked_ignored STREQUAL "")
  string(REGEX MATCHALL "[^\n]+" files "${tracked_ignored}")
  list(LENGTH files n)
  list(SUBLIST files 0 20 head)
  list(JOIN head "\n  " shown)
  message(FATAL_ERROR
          "${n} tracked file(s) match .gitignore; untrack them with "
          "'git rm -r --cached <path>':\n  ${shown}")
endif()
message("no tracked file matches .gitignore")
