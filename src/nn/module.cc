#include "nn/module.h"

#include <istream>
#include <ostream>

#include "util/logging.h"

namespace lite {

bool SerializeParams(const std::vector<VarPtr>& params, std::ostream* os) {
  std::ostream& out = *os;
  out << params.size() << "\n";
  out.precision(9);
  for (const auto& p : params) {
    out << p->value.rank();
    for (size_t d : p->value.shape()) out << " " << d;
    out << "\n";
    for (size_t i = 0; i < p->numel(); ++i) {
      out << p->value[i] << (i + 1 == p->numel() ? "\n" : " ");
    }
  }
  return static_cast<bool>(out);
}

bool DeserializeParams(std::istream* is, const std::vector<VarPtr>& params) {
  std::istream& in = *is;
  size_t count = 0;
  in >> count;
  if (count != params.size()) return false;
  for (const auto& p : params) {
    size_t rank = 0;
    in >> rank;
    if (rank != p->value.rank()) return false;
    for (size_t d = 0; d < rank; ++d) {
      size_t dim = 0;
      in >> dim;
      if (dim != p->value.shape()[d]) return false;
    }
    for (size_t i = 0; i < p->numel(); ++i) in >> p->value[i];
  }
  return static_cast<bool>(in);
}

void CopyParams(const std::vector<VarPtr>& src, const std::vector<VarPtr>& dst) {
  LITE_CHECK(src.size() == dst.size()) << "CopyParams arity";
  for (size_t i = 0; i < src.size(); ++i) {
    LITE_CHECK(src[i]->value.SameShape(dst[i]->value)) << "CopyParams shape";
    dst[i]->value = src[i]->value;
  }
}

void SoftUpdateParams(const std::vector<VarPtr>& src,
                      const std::vector<VarPtr>& dst, float tau) {
  LITE_CHECK(src.size() == dst.size()) << "SoftUpdateParams arity";
  for (size_t i = 0; i < src.size(); ++i) {
    Tensor& d = dst[i]->value;
    const Tensor& s = src[i]->value;
    for (size_t j = 0; j < d.numel(); ++j) {
      d[j] = tau * s[j] + (1.0f - tau) * d[j];
    }
  }
}

}  // namespace lite
