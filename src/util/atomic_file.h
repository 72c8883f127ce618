// Atomic file publication: write to `<path>.tmp.<pid>`, flush, verify the
// stream, then rename() into place. POSIX rename is atomic within a
// filesystem, so a reader (or a model-plane pull replicating the file)
// observes either the previous committed bytes or the complete new bytes —
// never a torn prefix. Before this existed the snapshot writers streamed
// straight into their final paths; a crash or a concurrent pull mid-write
// published a half-written file that the hardened loaders then had to
// reject, turning a routine save into a serving outage (ISSUE 10).
//
// Usage:
//   AtomicFileWriter w(path);
//   if (!w.ok()) return false;
//   w.stream() << ...;
//   return w.Commit();   // false => temp discarded, committed file untouched
//
// Destruction without Commit() (including via an exception) unlinks the
// temp file and leaves any previously committed file exactly as it was.
//
// Crash-mid-save testing: InjectAtomicWriteFailure(n) makes the n-th
// subsequent Commit() fail after the temp file is written but before the
// rename — exactly the window a crash would hit — so suites can prove a
// save aborts cleanly without corrupting committed state.
#ifndef LITE_UTIL_ATOMIC_FILE_H_
#define LITE_UTIL_ATOMIC_FILE_H_

#include <fstream>
#include <functional>
#include <string>

namespace lite {

class AtomicFileWriter {
 public:
  explicit AtomicFileWriter(const std::string& path);
  ~AtomicFileWriter();

  AtomicFileWriter(const AtomicFileWriter&) = delete;
  AtomicFileWriter& operator=(const AtomicFileWriter&) = delete;

  /// False when the temp file could not even be opened (missing directory,
  /// permissions). Commit() will also return false in that case.
  bool ok() const { return static_cast<bool>(out_); }

  std::ostream& stream() { return out_; }

  /// Flushes, verifies the stream state (a short write poisons it), closes
  /// and renames the temp file over `path`. Returns false — and removes the
  /// temp file — on any failure; the committed file is never touched on a
  /// failed commit. Idempotent: a second call returns the first result.
  bool Commit();

  /// The temp path the bytes are staged in (exposed for tests).
  const std::string& temp_path() const { return temp_path_; }

 private:
  std::string path_;
  std::string temp_path_;
  std::ofstream out_;
  bool committed_ = false;
  bool finished_ = false;
};

/// Convenience wrapper: stage, run `writer` on the stream, commit. Returns
/// false when the stream cannot be opened, `writer` returns false, or the
/// commit fails — the previously committed file survives in every case.
bool WriteFileAtomic(const std::string& path,
                     const std::function<bool(std::ostream&)>& writer);

/// Test hook: arms a one-shot failure on the n-th subsequent Commit()
/// (1 = the next one). The doomed write flushes the temp file, then fails
/// *before* the rename and unlinks the temp — the precise state a crash
/// between flush and rename leaves behind, minus the stray temp file a
/// real crash would also leave (which loaders must ignore anyway). n = 0
/// disarms. Test-only.
void InjectAtomicWriteFailure(int nth_commit);

}  // namespace lite

#endif  // LITE_UTIL_ATOMIC_FILE_H_
