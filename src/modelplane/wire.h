// Wire encoding for the model-distribution plane: the blob container,
// messages, a pluggable filter chain, and a checksummed frame format.
//
// Layering, outermost first:
//
//   frame     `mpframe v1 <chain> <raw> <enc> <hash>\n` + payload bytes.
//             `chain` names the filter chain that produced the payload
//             (e.g. "lz77", "raw"), `raw`/`enc` are the body sizes before
//             and after the chain, `hash` is FNV-1a 64 of the payload. The
//             decoder rejects size or hash mismatches and a chain name that
//             differs from its own — corruption and truncation are caught
//             here, before any parsing.
//   chain     an ordered list of WireFilters applied to the body on encode
//             and unapplied in reverse on decode. Filters are pure byte
//             transforms (compression, future encryption); the built-in
//             chain is a dependency-free LZ77 compressor, and "raw" (the
//             empty chain) is always available.
//   body      a line-oriented message: a pull request (`have <version>`) or
//             a push. A push carries the kind (full | delta | noop), the
//             target version, the delta base, one container (below) and
//             the removed-key list.
//   container the COMPLETE manifest of a version (with its own checksum)
//             followed by named blobs: all of them for a full push, only
//             the changed ones for a delta. The manifest always being
//             complete is what lets a delta receiver re-verify carried-over
//             blobs — the fail-whole-pull contract in blob.h. On its own,
//             a container is also the on-disk snapshot file
//             (lite/snapshot.h): one model format for disk and wire.
//
// Everything here is deterministic: identical messages encode to identical
// frames, so hash comparisons across shards and the single-process
// reference are meaningful.
#ifndef LITE_MODELPLANE_WIRE_H_
#define LITE_MODELPLANE_WIRE_H_

#include <memory>
#include <string>
#include <vector>

#include "modelplane/blob.h"

namespace lite::modelplane {

/// A pure byte transform on the wire body. Implementations must be
/// deterministic and side-effect free; Decode must be bounds-checked
/// against arbitrary (fuzzed) input and fail cleanly.
class WireFilter {
 public:
  virtual ~WireFilter() = default;
  virtual std::string name() const = 0;
  virtual bool Encode(const std::string& in, std::string* out) const = 0;
  virtual bool Decode(const std::string& in, std::string* out) const = 0;
};

/// Identity transform ("id") — useful to test the chain plumbing itself.
class IdentityFilter : public WireFilter {
 public:
  std::string name() const override { return "id"; }
  bool Encode(const std::string& in, std::string* out) const override;
  bool Decode(const std::string& in, std::string* out) const override;
};

/// Dependency-free LZ77 ("lz77"): greedy matcher over a 64 KiB window,
/// varint-coded literal runs and (distance, length) matches, decoded-size
/// prefix. Snapshot blobs are decimal tensor text, which repeats less than
/// it looks: a full push of the perfbench quick model shrinks only from
/// 465,846 to 400,138 bytes (-14%), and costs 8.2-8.5 ms to encode and
/// 4.1-4.4 ms to decode against 1.8 ms each for the raw chain. Decode is
/// fully bounds-checked: truncated input, distances beyond the output, or
/// a size prefix that disagrees with the decoded bytes all fail cleanly.
class Lz77Filter : public WireFilter {
 public:
  std::string name() const override { return "lz77"; }
  bool Encode(const std::string& in, std::string* out) const override;
  bool Decode(const std::string& in, std::string* out) const override;
};

/// An ordered filter chain. Encode applies filters first-to-last, Decode
/// unapplies last-to-first. The empty chain is valid and describes itself
/// as "raw".
class FilterChain {
 public:
  FilterChain() = default;
  explicit FilterChain(std::vector<std::shared_ptr<const WireFilter>> filters)
      : filters_(std::move(filters)) {}

  bool Encode(const std::string& in, std::string* out) const;
  bool Decode(const std::string& in, std::string* out) const;

  /// "+"-joined filter names, "raw" when empty. Carried in the frame
  /// header; both endpoints must agree.
  std::string Describe() const;

 private:
  std::vector<std::shared_ptr<const WireFilter>> filters_;
};

/// Builds a chain from filter names ("lz77", "id"; {} or {"raw"} = empty
/// chain). Returns false on an unknown name.
bool MakeFilterChain(const std::vector<std::string>& names, FilterChain* chain);

/// The container (see the file comment), as bytes:
///
///   manifest <entries> <manifest hash>
///   entry <key> <hash> <size>          one line per manifest entry
///   blobs <count>
///   blob <key> <size> <hash>           per blob: this line, the raw
///   <size bytes>                       bytes, then a newline
///
/// The manifest's version is not written (a push states it on its own
/// line, a snapshot file's is 0) but the manifest hash covers it.
/// EncodeContainer appends to `out`; it fails only on an invalid key.
bool EncodeContainer(const Manifest& manifest, const std::vector<Blob>& blobs,
                     std::string* out);

/// How much of a container DecodeContainer checks against its manifest.
/// Both modes verify the manifest checksum and the blob framing, and
/// reject a blob the manifest does not name or a key that appears twice.
enum class BlobCheck {
  /// Every manifest entry has exactly one blob, and each blob's size and
  /// content hash match its entry — the one hash pass over the bytes. A
  /// snapshot file is decoded this way.
  kComplete,
  /// The blobs may be any subset of the manifest (a delta push) and their
  /// contents are not hashed here: the puller assembles the full candidate
  /// set, carried-over blobs included, and checks it once with
  /// VerifyBlobSet.
  kKeysOnly,
};

/// Decodes one container starting at `*pos` of `in` and advances `*pos`
/// past it. `version` is the version the manifest is checksummed at. On
/// failure returns false with a reason in `why`; outputs are then
/// unspecified.
bool DecodeContainer(const std::string& in, size_t* pos, uint64_t version,
                     BlobCheck check, Manifest* manifest,
                     std::vector<Blob>* blobs, std::string* why);

/// A shard's pull request: the plane version it currently serves (0 =
/// nothing installed, the server answers with a full push).
struct PullRequest {
  uint64_t have = 0;
};

/// A server push. `manifest` is always the complete manifest of `version`;
/// `blobs` is the complete set for kFull and the changed subset for
/// kDelta; kNoop carries neither (the puller is already current).
struct PushMessage {
  enum class Kind { kFull, kDelta, kNoop };
  Kind kind = Kind::kFull;
  uint64_t version = 0;
  uint64_t base = 0;  ///< kDelta: the version the changed set applies to.
  Manifest manifest;
  std::vector<Blob> blobs;
  std::vector<std::string> removed;  ///< kDelta: keys deleted since base.
};

/// Frame encode/decode. Decode verifies the frame header (sizes, payload
/// hash, chain name) and the body structure (the manifest checksum, blob
/// framing and keys — BlobCheck::kKeysOnly); any mismatch fails with a
/// reason in `why`. Blob contents are checked against the manifest by the
/// receiver (ShardPuller) after assembly. Encoders fail only on invalid
/// inputs (bad blob keys, a manifest whose version disagrees with the
/// message).
bool EncodePullRequest(const PullRequest& req, const FilterChain& chain,
                       std::string* frame);
bool DecodePullRequest(const std::string& frame, const FilterChain& chain,
                       PullRequest* req, std::string* why);
bool EncodePush(const PushMessage& msg, const FilterChain& chain,
                std::string* frame);
bool DecodePush(const std::string& frame, const FilterChain& chain,
                PushMessage* msg, std::string* why);

}  // namespace lite::modelplane

#endif  // LITE_MODELPLANE_WIRE_H_
