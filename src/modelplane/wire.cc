#include "modelplane/wire.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <map>
#include <sstream>
#include <utility>

namespace lite::modelplane {
namespace {

constexpr uint64_t kMaxBodyBytes = 1ull << 30;
constexpr uint64_t kMaxListEntries = 100000;

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(0x80 | (v & 0x7f)));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(const std::string& in, size_t* pos, uint64_t* v) {
  uint64_t r = 0;
  int shift = 0;
  while (*pos < in.size() && shift <= 63) {
    const unsigned char c = static_cast<unsigned char>(in[(*pos)++]);
    r |= static_cast<uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) {
      *v = r;
      return true;
    }
    shift += 7;
  }
  return false;
}

bool ParseU64(std::string_view tok, uint64_t* v) {
  if (tok.empty()) return false;
  auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), *v);
  return ec == std::errc() && p == tok.data() + tok.size();
}

std::vector<std::string_view> SplitWs(std::string_view line) {
  std::vector<std::string_view> toks;
  size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) toks.push_back(line.substr(i, j - i));
    i = j;
  }
  return toks;
}

/// Sequential reader over a decoded body: header lines interleaved with
/// raw blob bytes (which may contain '\n', so line-oriented istream
/// parsing is not an option).
class Cursor {
 public:
  explicit Cursor(const std::string& s, size_t pos = 0) : s_(s), pos_(pos) {}

  bool Line(std::string_view* line) {
    if (pos_ >= s_.size()) return false;
    const size_t nl = s_.find('\n', pos_);
    if (nl == std::string::npos) return false;
    *line = std::string_view(s_).substr(pos_, nl - pos_);
    pos_ = nl + 1;
    return true;
  }

  bool Bytes(size_t n, std::string* out) {
    if (n > s_.size() - pos_) return false;
    out->assign(s_, pos_, n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == s_.size(); }
  size_t pos() const { return pos_; }
  void set_pos(size_t pos) { pos_ = pos; }

 private:
  const std::string& s_;
  size_t pos_;
};

bool Fail(std::string* why, const std::string& reason) {
  if (why != nullptr) *why = reason;
  return false;
}

}  // namespace

bool IdentityFilter::Encode(const std::string& in, std::string* out) const {
  *out = in;
  return true;
}

bool IdentityFilter::Decode(const std::string& in, std::string* out) const {
  *out = in;
  return true;
}

bool Lz77Filter::Encode(const std::string& in, std::string* out) const {
  out->clear();
  PutVarint(out, in.size());
  const size_t n = in.size();
  // Head table: last position + 1 for each 4-byte-prefix hash bucket.
  std::vector<uint32_t> head(1u << 16, 0);
  const auto hash4 = [&](size_t p) {
    uint32_t v = static_cast<uint32_t>(static_cast<uint8_t>(in[p])) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(in[p + 1])) << 8) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(in[p + 2])) << 16) |
                 (static_cast<uint32_t>(static_cast<uint8_t>(in[p + 3])) << 24);
    v *= 2654435761u;
    return (v >> 16) & 0xffffu;
  };
  size_t lit_start = 0;
  const auto flush_literals = [&](size_t end) {
    size_t p = lit_start;
    while (p < end) {
      const size_t len = std::min(end - p, static_cast<size_t>(1) << 15);
      out->push_back(0x00);
      PutVarint(out, len);
      out->append(in, p, len);
      p += len;
    }
  };
  size_t i = 0;
  while (i + 4 <= n) {
    const uint32_t h = hash4(i);
    const size_t cand = head[h] == 0 ? SIZE_MAX : head[h] - 1;
    head[h] = static_cast<uint32_t>(i + 1);
    size_t best = 0;
    if (cand != SIZE_MAX && cand < i && i - cand <= 65535) {
      const size_t cap = std::min(n - i, static_cast<size_t>(65535));
      size_t l = 0;
      while (l < cap && in[cand + l] == in[i + l]) ++l;
      best = l;
    }
    if (best >= 4) {
      flush_literals(i);
      out->push_back(0x01);
      PutVarint(out, i - cand);
      PutVarint(out, best);
      // Keep the table warm inside the covered span.
      const size_t stop = std::min(i + best, n - 4);
      for (size_t p = i + 1; p < stop; ++p) {
        head[hash4(p)] = static_cast<uint32_t>(p + 1);
      }
      i += best;
      lit_start = i;
    } else {
      ++i;
    }
  }
  flush_literals(n);
  return true;
}

bool Lz77Filter::Decode(const std::string& in, std::string* out) const {
  out->clear();
  size_t pos = 0;
  uint64_t want = 0;
  if (!GetVarint(in, &pos, &want)) return false;
  if (want > kMaxBodyBytes) return false;
  out->reserve(want);
  while (pos < in.size()) {
    const unsigned char tag = static_cast<unsigned char>(in[pos++]);
    if (tag == 0x00) {
      uint64_t len = 0;
      if (!GetVarint(in, &pos, &len)) return false;
      if (len == 0 || len > in.size() - pos) return false;
      if (out->size() + len > want) return false;
      out->append(in, pos, len);
      pos += len;
    } else if (tag == 0x01) {
      uint64_t dist = 0, len = 0;
      if (!GetVarint(in, &pos, &dist)) return false;
      if (!GetVarint(in, &pos, &len)) return false;
      if (dist == 0 || dist > out->size()) return false;
      if (len < 4 || len > want - out->size()) return false;
      // Byte-by-byte on purpose: matches may overlap their own output
      // (dist < len replicates a short period).
      const size_t start = out->size() - static_cast<size_t>(dist);
      for (uint64_t k = 0; k < len; ++k) out->push_back((*out)[start + k]);
    } else {
      return false;
    }
  }
  return out->size() == want;
}

bool FilterChain::Encode(const std::string& in, std::string* out) const {
  std::string cur = in;
  for (const auto& f : filters_) {
    std::string next;
    if (!f->Encode(cur, &next)) return false;
    cur = std::move(next);
  }
  *out = std::move(cur);
  return true;
}

bool FilterChain::Decode(const std::string& in, std::string* out) const {
  std::string cur = in;
  for (auto it = filters_.rbegin(); it != filters_.rend(); ++it) {
    std::string next;
    if (!(*it)->Decode(cur, &next)) return false;
    cur = std::move(next);
  }
  *out = std::move(cur);
  return true;
}

std::string FilterChain::Describe() const {
  if (filters_.empty()) return "raw";
  std::string d;
  for (const auto& f : filters_) {
    if (!d.empty()) d += "+";
    d += f->name();
  }
  return d;
}

bool MakeFilterChain(const std::vector<std::string>& names,
                     FilterChain* chain) {
  std::vector<std::shared_ptr<const WireFilter>> filters;
  for (const std::string& n : names) {
    if (n == "raw") continue;  // the empty chain, spelled explicitly
    if (n == "id") {
      filters.push_back(std::make_shared<IdentityFilter>());
    } else if (n == "lz77") {
      filters.push_back(std::make_shared<Lz77Filter>());
    } else {
      return false;
    }
  }
  *chain = FilterChain(std::move(filters));
  return true;
}

namespace {

bool EncodeFrameFrom(const std::string& body, const FilterChain& chain,
                     std::string* frame) {
  std::string payload;
  if (!chain.Encode(body, &payload)) return false;
  std::ostringstream h;
  h << "mpframe v1 " << chain.Describe() << " " << body.size() << " "
    << payload.size() << " " << HashBytes(payload) << "\n";
  *frame = h.str();
  frame->append(payload);
  return true;
}

bool DecodeFrameTo(const std::string& frame, const FilterChain& chain,
                   std::string* body, std::string* why) {
  const size_t nl = frame.find('\n');
  if (nl == std::string::npos) return Fail(why, "frame: no header line");
  const auto toks = SplitWs(std::string_view(frame).substr(0, nl));
  if (toks.size() != 6 || toks[0] != "mpframe" || toks[1] != "v1") {
    return Fail(why, "frame: bad header");
  }
  if (toks[2] != chain.Describe()) {
    return Fail(why, "frame: filter chain mismatch");
  }
  uint64_t raw = 0, enc = 0, hash = 0;
  if (!ParseU64(toks[3], &raw) || !ParseU64(toks[4], &enc) ||
      !ParseU64(toks[5], &hash)) {
    return Fail(why, "frame: bad header numbers");
  }
  if (raw > kMaxBodyBytes || enc > kMaxBodyBytes) {
    return Fail(why, "frame: size over limit");
  }
  const std::string_view payload = std::string_view(frame).substr(nl + 1);
  if (payload.size() != enc) return Fail(why, "frame: truncated payload");
  if (HashBytes(payload) != hash) return Fail(why, "frame: payload checksum");
  if (!chain.Decode(std::string(payload), body)) {
    return Fail(why, "frame: filter decode failed");
  }
  if (body->size() != raw) return Fail(why, "frame: decoded size mismatch");
  return true;
}

const char* KindName(PushMessage::Kind k) {
  switch (k) {
    case PushMessage::Kind::kFull: return "full";
    case PushMessage::Kind::kDelta: return "delta";
    case PushMessage::Kind::kNoop: return "noop";
  }
  return "full";
}

}  // namespace

bool EncodePullRequest(const PullRequest& req, const FilterChain& chain,
                       std::string* frame) {
  std::string body = "mpreq v1\nhave " + std::to_string(req.have) + "\nend\n";
  return EncodeFrameFrom(body, chain, frame);
}

bool DecodePullRequest(const std::string& frame, const FilterChain& chain,
                       PullRequest* req, std::string* why) {
  std::string body;
  if (!DecodeFrameTo(frame, chain, &body, why)) return false;
  Cursor c(body);
  std::string_view line;
  if (!c.Line(&line) || line != "mpreq v1") return Fail(why, "req: bad magic");
  if (!c.Line(&line)) return Fail(why, "req: truncated");
  const auto toks = SplitWs(line);
  if (toks.size() != 2 || toks[0] != "have" || !ParseU64(toks[1], &req->have)) {
    return Fail(why, "req: bad have line");
  }
  if (!c.Line(&line) || line != "end" || !c.AtEnd()) {
    return Fail(why, "req: bad trailer");
  }
  return true;
}

bool EncodeContainer(const Manifest& manifest, const std::vector<Blob>& blobs,
                     std::string* out) {
  for (const ManifestEntry& e : manifest.entries) {
    if (!ValidBlobKey(e.key)) return false;
  }
  for (const Blob& b : blobs) {
    if (!ValidBlobKey(b.key)) return false;
  }
  *out += "manifest " + std::to_string(manifest.entries.size()) + " " +
          std::to_string(manifest.Hash()) + "\n";
  for (const ManifestEntry& e : manifest.entries) {
    *out += "entry " + e.key + " " + std::to_string(e.hash) + " " +
            std::to_string(e.size) + "\n";
  }
  *out += "blobs " + std::to_string(blobs.size()) + "\n";
  for (const Blob& b : blobs) {
    *out += "blob " + b.key + " " + std::to_string(b.bytes.size()) + " " +
            std::to_string(HashBytes(b.bytes)) + "\n";
    *out += b.bytes;
    *out += "\n";
  }
  return true;
}

bool DecodeContainer(const std::string& in, size_t* pos, uint64_t version,
                     BlobCheck check, Manifest* manifest,
                     std::vector<Blob>* blobs, std::string* why) {
  Cursor c(in, *pos);
  std::string_view line;
  if (!c.Line(&line)) return Fail(why, "container: truncated");
  auto toks = SplitWs(line);
  uint64_t n = 0, declared_manifest_hash = 0;
  if (toks.size() != 3 || toks[0] != "manifest" || !ParseU64(toks[1], &n) ||
      !ParseU64(toks[2], &declared_manifest_hash) || n > kMaxListEntries) {
    return Fail(why, "container: manifest line");
  }
  manifest->version = version;
  manifest->entries.clear();
  manifest->entries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    if (!c.Line(&line)) return Fail(why, "container: truncated manifest");
    toks = SplitWs(line);
    ManifestEntry e;
    if (toks.size() != 4 || toks[0] != "entry" ||
        !ParseU64(toks[2], &e.hash) || !ParseU64(toks[3], &e.size)) {
      return Fail(why, "container: manifest entry");
    }
    e.key = std::string(toks[1]);
    if (!ValidBlobKey(e.key)) return Fail(why, "container: bad manifest key");
    manifest->entries.push_back(std::move(e));
  }
  if (manifest->Hash() != declared_manifest_hash) {
    return Fail(why, "container: manifest checksum mismatch");
  }
  // Entries not yet matched by a blob, by key. A manifest naming a key
  // twice describes no installable set.
  std::map<std::string_view, size_t> unmatched;
  for (size_t i = 0; i < manifest->entries.size(); ++i) {
    if (!unmatched.emplace(manifest->entries[i].key, i).second) {
      return Fail(why, "container: duplicate manifest key");
    }
  }
  if (!c.Line(&line)) return Fail(why, "container: truncated");
  toks = SplitWs(line);
  uint64_t m = 0;
  if (toks.size() != 2 || toks[0] != "blobs" || !ParseU64(toks[1], &m) ||
      m > n) {
    return Fail(why, "container: blobs line");
  }
  if (check == BlobCheck::kComplete && m != n) {
    return Fail(why, "container: " + std::to_string(m) + " blobs for " +
                         std::to_string(n) + " manifest entries");
  }
  // Per blob: its manifest entry and the hash its header declares.
  std::vector<std::pair<size_t, uint64_t>> declared;
  declared.reserve(m);
  blobs->clear();
  blobs->reserve(m);
  for (uint64_t i = 0; i < m; ++i) {
    if (!c.Line(&line)) return Fail(why, "container: truncated blob header");
    toks = SplitWs(line);
    uint64_t size = 0, hash = 0;
    if (toks.size() != 4 || toks[0] != "blob" || !ParseU64(toks[2], &size) ||
        !ParseU64(toks[3], &hash) || size > kMaxBodyBytes) {
      return Fail(why, "container: blob header");
    }
    const auto it = unmatched.find(toks[1]);
    if (it == unmatched.end()) {
      return Fail(why, "container: blob '" + std::string(toks[1]) +
                           "' not in manifest or repeated");
    }
    declared.emplace_back(it->second, hash);
    unmatched.erase(it);
    Blob b;
    b.key = std::string(toks[1]);
    if (!c.Bytes(size, &b.bytes)) return Fail(why, "container: truncated blob");
    if (!c.Line(&line) || !line.empty()) {
      return Fail(why, "container: blob framing");
    }
    blobs->push_back(std::move(b));
  }
  // Contents last, once the framing is known to be whole: a truncated or
  // misframed container fails above without hashing a byte.
  if (check == BlobCheck::kComplete) {
    for (size_t i = 0; i < blobs->size(); ++i) {
      const Blob& b = (*blobs)[i];
      const ManifestEntry& e = manifest->entries[declared[i].first];
      if (b.bytes.size() != e.size || declared[i].second != e.hash ||
          HashBytes(b.bytes) != e.hash) {
        return Fail(why, "container: '" + b.key + "' disagrees with manifest");
      }
    }
  }
  *pos = c.pos();
  return true;
}

bool EncodePush(const PushMessage& msg, const FilterChain& chain,
                std::string* frame) {
  if (msg.manifest.version != msg.version) return false;
  for (const std::string& k : msg.removed) {
    if (!ValidBlobKey(k)) return false;
  }
  std::string body;
  body += "mppush v1\n";
  body += "kind ";
  body += KindName(msg.kind);
  body += "\nversion " + std::to_string(msg.version);
  body += "\nbase " + std::to_string(msg.base) + "\n";
  if (!EncodeContainer(msg.manifest, msg.blobs, &body)) return false;
  body += "removed " + std::to_string(msg.removed.size()) + "\n";
  for (const std::string& k : msg.removed) {
    body += "rm " + k + "\n";
  }
  body += "end\n";
  return EncodeFrameFrom(body, chain, frame);
}

bool DecodePush(const std::string& frame, const FilterChain& chain,
                PushMessage* msg, std::string* why) {
  std::string body;
  if (!DecodeFrameTo(frame, chain, &body, why)) return false;
  Cursor c(body);
  std::string_view line;
  if (!c.Line(&line) || line != "mppush v1") {
    return Fail(why, "push: bad magic");
  }
  if (!c.Line(&line)) return Fail(why, "push: truncated");
  auto toks = SplitWs(line);
  if (toks.size() != 2 || toks[0] != "kind") return Fail(why, "push: kind");
  if (toks[1] == "full") {
    msg->kind = PushMessage::Kind::kFull;
  } else if (toks[1] == "delta") {
    msg->kind = PushMessage::Kind::kDelta;
  } else if (toks[1] == "noop") {
    msg->kind = PushMessage::Kind::kNoop;
  } else {
    return Fail(why, "push: unknown kind");
  }
  if (!c.Line(&line)) return Fail(why, "push: truncated");
  toks = SplitWs(line);
  if (toks.size() != 2 || toks[0] != "version" ||
      !ParseU64(toks[1], &msg->version)) {
    return Fail(why, "push: version line");
  }
  if (!c.Line(&line)) return Fail(why, "push: truncated");
  toks = SplitWs(line);
  if (toks.size() != 2 || toks[0] != "base" || !ParseU64(toks[1], &msg->base)) {
    return Fail(why, "push: base line");
  }
  size_t pos = c.pos();
  if (!DecodeContainer(body, &pos, msg->version, BlobCheck::kKeysOnly,
                       &msg->manifest, &msg->blobs, why)) {
    return false;
  }
  c.set_pos(pos);
  if (!c.Line(&line)) return Fail(why, "push: truncated");
  toks = SplitWs(line);
  uint64_t k = 0;
  if (toks.size() != 2 || toks[0] != "removed" || !ParseU64(toks[1], &k) ||
      k > kMaxListEntries) {
    return Fail(why, "push: removed line");
  }
  msg->removed.clear();
  msg->removed.reserve(k);
  for (uint64_t i = 0; i < k; ++i) {
    if (!c.Line(&line)) return Fail(why, "push: truncated removed");
    toks = SplitWs(line);
    if (toks.size() != 2 || toks[0] != "rm") return Fail(why, "push: rm line");
    std::string key(toks[1]);
    if (!ValidBlobKey(key)) return Fail(why, "push: bad rm key");
    msg->removed.push_back(std::move(key));
  }
  if (!c.Line(&line) || line != "end" || !c.AtEnd()) {
    return Fail(why, "push: bad trailer");
  }
  return true;
}

}  // namespace lite::modelplane
