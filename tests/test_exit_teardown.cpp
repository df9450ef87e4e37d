// Exit-time teardown regression: the global thread pool is destroyed
// during static destruction, and its workers may still be draining
// leftover parallel_for helper tasks whose instrumentation records into
// the global metrics registry.  The registry must outlive them.
//
// The race only shows at process exit, so the check is a child-process
// loop: run without arguments, this binary re-executes itself with
// `--child` kChildren times and requires every child to exit 0 (a
// use-after-free aborts under ASan, or corrupts the heap and crashes
// without it).  A child sets a 4-worker pool, touches the registry,
// runs 2000 small parallel_for calls and returns from main.
#include <spawn.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstring>

#include "core/thread_pool.hpp"
#include "obs/metrics.hpp"

extern char** environ;

namespace {

constexpr int kChildren = 50;
constexpr int kLoops = 2000;

int child() {
  affectsys::core::set_global_threads(4);
  affectsys::obs::Registry::global().counter("test.exit_teardown").add(1);
  for (int i = 0; i < kLoops; ++i) {
    affectsys::core::global_pool().parallel_for(
        0, 8, 1, [](std::size_t, std::size_t) {});
  }
  return 0;  // static destruction runs with helpers possibly queued
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--child") == 0) return child();

  char child_flag[] = "--child";
  char* child_argv[] = {argv[0], child_flag, nullptr};
  int failures = 0;
  for (int i = 0; i < kChildren; ++i) {
    pid_t pid = 0;
    if (posix_spawn(&pid, argv[0], nullptr, nullptr, child_argv, environ) !=
        0) {
      std::perror("posix_spawn");
      return 1;
    }
    int status = 0;
    if (waitpid(pid, &status, 0) != pid) {
      std::perror("waitpid");
      return 1;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      ++failures;
      if (WIFSIGNALED(status)) {
        std::fprintf(stderr, "child %d killed by signal %d\n", i,
                     WTERMSIG(status));
      } else {
        std::fprintf(stderr, "child %d exited with status %d\n", i,
                     WEXITSTATUS(status));
      }
    }
  }
  std::printf("%d/%d children exited cleanly\n", kChildren - failures,
              kChildren);
  return failures == 0 ? 0 : 1;
}
