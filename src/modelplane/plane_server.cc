#include "modelplane/plane_server.h"

#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace lite::modelplane {
namespace {

/// plane_* metric twins of ModelPlaneServer::Stats (docs/MODELPLANE.md).
struct PlaneMetrics {
  obs::Counter* publishes;
  obs::Counter* full_pushes;
  obs::Counter* delta_pushes;
  obs::Counter* noop_pushes;
  obs::Counter* full_push_bytes;
  obs::Counter* delta_push_bytes;
  obs::Counter* bad_requests;

  static PlaneMetrics& Get() {
    static PlaneMetrics m{
        obs::MetricsRegistry::Global().GetCounter("plane_publishes_total"),
        obs::MetricsRegistry::Global().GetCounter("plane_full_pushes_total"),
        obs::MetricsRegistry::Global().GetCounter("plane_delta_pushes_total"),
        obs::MetricsRegistry::Global().GetCounter("plane_noop_pushes_total"),
        obs::MetricsRegistry::Global().GetCounter(
            "plane_full_push_bytes_total"),
        obs::MetricsRegistry::Global().GetCounter(
            "plane_delta_push_bytes_total"),
        obs::MetricsRegistry::Global().GetCounter("plane_bad_requests_total"),
    };
    return m;
  }
};

}  // namespace

ModelPlaneServer::ModelPlaneServer(PlaneOptions opts) : opts_(std::move(opts)) {
  if (!MakeFilterChain(opts_.filters, &chain_)) {
    throw std::invalid_argument("ModelPlaneServer: unknown wire filter");
  }
}

uint64_t ModelPlaneServer::Publish(
    const std::map<std::string, std::string>& blobs) {
  for (const auto& [key, bytes] : blobs) {
    (void)bytes;
    LITE_CHECK(ValidBlobKey(key)) << "Publish: invalid blob key '" << key
                                  << "'";
  }
  std::lock_guard<std::mutex> lock(mu_);
  ChangeRecord rec;
  rec.version = version_ + 1;
  for (const auto& [key, bytes] : blobs) {
    auto it = blobs_.find(key);
    if (it == blobs_.end() || HashBytes(it->second) != HashBytes(bytes)) {
      rec.changed.insert(key);
    }
  }
  for (const auto& [key, bytes] : blobs_) {
    (void)bytes;
    if (blobs.find(key) == blobs.end()) rec.removed.insert(key);
  }
  ++version_;
  blobs_ = blobs;
  manifest_ = BuildManifest(version_, blobs_);
  history_.push_back(std::move(rec));
  while (history_.size() > opts_.delta_history) history_.pop_front();
  ++stats_.publishes;
  PlaneMetrics::Get().publishes->Inc();
  return version_;
}

uint64_t ModelPlaneServer::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

Manifest ModelPlaneServer::manifest() const {
  std::lock_guard<std::mutex> lock(mu_);
  return manifest_;
}

std::string ModelPlaneServer::HandleRequestFrame(const std::string& frame) {
  PullRequest req;
  std::string why;
  if (!DecodePullRequest(frame, chain_, &req, &why)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.bad_requests;
    PlaneMetrics::Get().bad_requests->Inc();
    return "";
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (version_ == 0) {
    // Nothing published yet; pullers retry.
    ++stats_.bad_requests;
    PlaneMetrics::Get().bad_requests->Inc();
    return "";
  }
  PushMessage msg;
  msg.version = version_;
  msg.manifest = manifest_;
  if (req.have == version_) {
    msg.kind = PushMessage::Kind::kNoop;
    msg.manifest = Manifest{};
    msg.manifest.version = version_;
  } else if (req.have > 0 && req.have < version_ && !history_.empty() &&
             req.have + 1 >= history_.front().version) {
    // Compose the change sets of versions (have, version_] against the
    // current contents: changed-and-still-present ships as a blob,
    // anything touched but now absent ships as removed.
    msg.kind = PushMessage::Kind::kDelta;
    msg.base = req.have;
    std::set<std::string> touched;
    for (const ChangeRecord& rec : history_) {
      if (rec.version <= req.have) continue;
      touched.insert(rec.changed.begin(), rec.changed.end());
      touched.insert(rec.removed.begin(), rec.removed.end());
    }
    for (const std::string& key : touched) {
      auto it = blobs_.find(key);
      if (it == blobs_.end()) {
        msg.removed.push_back(key);
      } else {
        msg.blobs.push_back(Blob{key, it->second});
      }
    }
  } else {
    // Fresh shard, a puller beyond the delta window, or a stale `have`
    // ahead of us (a reordered response from a previous server life):
    // full push. The puller's version-monotonicity check rejects it if it
    // would be a regression on its side.
    msg.kind = PushMessage::Kind::kFull;
    for (const auto& [key, bytes] : blobs_) {
      msg.blobs.push_back(Blob{key, bytes});
    }
  }
  std::string out;
  if (!EncodePush(msg, chain_, &out)) {
    LITE_WARN << "ModelPlaneServer: push encode failed at version "
              << version_;
    ++stats_.bad_requests;
    PlaneMetrics::Get().bad_requests->Inc();
    return "";
  }
  switch (msg.kind) {
    case PushMessage::Kind::kFull:
      ++stats_.full_pushes;
      stats_.full_push_bytes += out.size();
      PlaneMetrics::Get().full_pushes->Inc();
      PlaneMetrics::Get().full_push_bytes->Inc(out.size());
      break;
    case PushMessage::Kind::kDelta:
      ++stats_.delta_pushes;
      stats_.delta_push_bytes += out.size();
      PlaneMetrics::Get().delta_pushes->Inc();
      PlaneMetrics::Get().delta_push_bytes->Inc(out.size());
      break;
    case PushMessage::Kind::kNoop:
      ++stats_.noop_pushes;
      PlaneMetrics::Get().noop_pushes->Inc();
      break;
  }
  return out;
}

ModelPlaneServer::Stats ModelPlaneServer::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace lite::modelplane
