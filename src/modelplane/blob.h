// Named parameter blobs and manifests: the unit of model distribution.
//
// A published model version is a set of named blobs (key == the part's
// name, e.g. `necs_0.txt`, bytes == its exact serialization —
// lite::EncodeSnapshotBlobs produces this form) plus a manifest: the plane
// version, and for every blob its key, content hash and size. The manifest
// is what makes pulls atomic: a puller accepts a blob set only when it
// matches the manifest *exactly* — same key set, same sizes, same hashes —
// so a shard either installs the complete version or keeps the previous
// one. Mixing blobs of two versions is structurally impossible because the
// carried-over blobs of a delta pull are re-hashed against the new
// manifest too.
//
// A manifest and its blobs travel together as one container (wire.h): the
// payload of every push, and on its own the snapshot file on disk
// (lite/snapshot.h). Hashes are FNV-1a 64-bit, so "blob unchanged" means
// the same thing on the wire and on disk.
#ifndef LITE_MODELPLANE_BLOB_H_
#define LITE_MODELPLANE_BLOB_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace lite::modelplane {

/// FNV-1a 64-bit over `s` (offset basis 14695981039346656037, prime
/// 1099511628211).
uint64_t HashBytes(std::string_view s);

/// Blob keys are file names: nonempty, at most 255 bytes, no whitespace or
/// control characters (they appear unquoted on wire header lines).
bool ValidBlobKey(const std::string& key);

/// One named parameter blob.
struct Blob {
  std::string key;
  std::string bytes;
};

struct ManifestEntry {
  std::string key;
  uint64_t hash = 0;
  uint64_t size = 0;
};

/// The manifest of one published plane version: every blob of the version,
/// sorted by key (canonical order — encoding is iteration-independent).
struct Manifest {
  uint64_t version = 0;
  std::vector<ManifestEntry> entries;

  /// Entry for `key`, nullptr when absent.
  const ManifestEntry* Find(const std::string& key) const;

  /// Hash over the canonical serialization (version + every entry), used
  /// as the wire-level manifest checksum.
  uint64_t Hash() const;
};

/// Builds the manifest of `blobs` at `version` (entries sorted by key,
/// hashes computed here).
Manifest BuildManifest(uint64_t version,
                       const std::map<std::string, std::string>& blobs);

/// Verifies that `blobs` is EXACTLY the set the manifest describes: same
/// keys (no extras, no absences), same sizes, same content hashes. This is
/// the fail-whole-pull check: a puller runs it over the complete candidate
/// set (delta pulls included, carried-over blobs and all) before swapping
/// anything in. Returns false and fills `why` on the first mismatch.
bool VerifyBlobSet(const Manifest& manifest,
                   const std::map<std::string, std::string>& blobs,
                   std::string* why);

}  // namespace lite::modelplane

#endif  // LITE_MODELPLANE_BLOB_H_
