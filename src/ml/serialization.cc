#include "ml/serialization.h"

#include <iostream>

namespace lite {

namespace {
constexpr char kMagic[] = "litemodel";
constexpr char kVersion[] = "v1";

bool ReadHeader(std::istream* is, const std::string& kind) {
  std::string magic, version, k;
  if (!(*is >> magic >> version >> k)) return false;
  return magic == kMagic && version == kVersion && k == kind;
}

void WriteHeader(std::ostream* os, const std::string& kind) {
  *os << kMagic << " " << kVersion << " " << kind << "\n";
}
}  // namespace

void SerializeTree(const DecisionTreeRegressor& tree, std::ostream* os) {
  WriteHeader(os, "tree");
  os->precision(17);
  const auto& nodes = tree.nodes();
  *os << nodes.size() << "\n";
  for (const auto& n : nodes) {
    *os << n.feature << " " << n.threshold << " " << n.value << " " << n.left
        << " " << n.right << "\n";
  }
}

bool DeserializeTree(std::istream* is, DecisionTreeRegressor* tree) {
  if (!ReadHeader(is, "tree")) return false;
  size_t count = 0;
  if (!(*is >> count) || count > 10'000'000) return false;
  std::vector<DecisionTreeRegressor::Node> nodes(count);
  for (auto& n : nodes) {
    if (!(*is >> n.feature >> n.threshold >> n.value >> n.left >> n.right)) {
      return false;
    }
    long max_id = static_cast<long>(count);
    if (n.left >= max_id || n.right >= max_id) return false;
    if (n.feature >= 0 && (n.left < 0 || n.right < 0)) return false;
  }
  tree->set_nodes(std::move(nodes));
  return true;
}

void SerializeForest(const RandomForestRegressor& forest, std::ostream* os) {
  WriteHeader(os, "forest");
  *os << forest.trees().size() << "\n";
  for (const auto& t : forest.trees()) SerializeTree(t, os);
}

bool DeserializeForest(std::istream* is, RandomForestRegressor* forest) {
  if (!ReadHeader(is, "forest")) return false;
  size_t count = 0;
  if (!(*is >> count) || count > 100'000) return false;
  std::vector<DecisionTreeRegressor> trees(count);
  for (auto& t : trees) {
    if (!DeserializeTree(is, &t)) return false;
  }
  forest->set_trees(std::move(trees));
  return true;
}

}  // namespace lite
