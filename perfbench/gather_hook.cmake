# Injected into the repository's top-level project() call through
# CMAKE_PROJECT_gather_INCLUDE (see run.py).  The repository's libraries set
# their include paths from CMAKE_SOURCE_DIR, so the benchmark cannot be a
# top-level project that adds them as a subdirectory.  Instead it joins the
# repository's own configure step: CMakeLists.txt here is included at the end
# of the top-level CMakeLists.txt, once every gather_* target exists.
# Deferred arguments are expanded when the call runs, so the path is kept in
# a variable of its own.
set(PERFBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}"
  CALL include "${PERFBENCH_DIR}/CMakeLists.txt")
