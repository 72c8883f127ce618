#include "util/atomic_file.h"

#include <atomic>
#include <cstdio>

#ifdef _WIN32
#include <process.h>
#define LITE_GETPID _getpid
#else
#include <unistd.h>
#define LITE_GETPID getpid
#endif

#include "util/logging.h"

namespace lite {

namespace {
// One-shot commit-failure injection (see header). A plain atomic is enough:
// the hook is armed and consumed single-threaded in tests.
std::atomic<int> g_fail_commit_countdown{0};

bool ConsumeInjectedFailure() {
  int n = g_fail_commit_countdown.load(std::memory_order_relaxed);
  while (n > 0) {
    if (g_fail_commit_countdown.compare_exchange_weak(
            n, n - 1, std::memory_order_relaxed)) {
      return n == 1;  // this commit is the doomed one.
    }
  }
  return false;
}
}  // namespace

void InjectAtomicWriteFailure(int nth_commit) {
  g_fail_commit_countdown.store(nth_commit < 0 ? 0 : nth_commit,
                                std::memory_order_relaxed);
}

AtomicFileWriter::AtomicFileWriter(const std::string& path)
    : path_(path),
      temp_path_(path + ".tmp." + std::to_string(LITE_GETPID())),
      out_(temp_path_, std::ios::binary | std::ios::trunc) {}

AtomicFileWriter::~AtomicFileWriter() {
  if (!finished_) {
    out_.close();
    std::remove(temp_path_.c_str());
  }
}

bool AtomicFileWriter::Commit() {
  if (finished_) return committed_;
  finished_ = true;
  out_.flush();
  // badbit/failbit after the flush means some write — possibly one long
  // before the final << — was short; committing would publish a silently
  // truncated file, which is the exact bug this class exists to kill.
  const bool stream_ok = static_cast<bool>(out_);
  out_.close();
  if (!stream_ok || ConsumeInjectedFailure()) {
    std::remove(temp_path_.c_str());
    return false;
  }
  if (std::rename(temp_path_.c_str(), path_.c_str()) != 0) {
    LITE_WARN << "AtomicFileWriter: rename('" << temp_path_ << "' -> '"
              << path_ << "') failed";
    std::remove(temp_path_.c_str());
    return false;
  }
  committed_ = true;
  return true;
}

bool WriteFileAtomic(const std::string& path,
                     const std::function<bool(std::ostream&)>& writer) {
  AtomicFileWriter w(path);
  if (!w.ok()) return false;
  if (!writer(w.stream())) return false;
  return w.Commit();
}

}  // namespace lite
