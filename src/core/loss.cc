#include "core/loss.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/threading.h"

namespace vero {
namespace {

// Floor on hessians to keep leaf weights bounded.
constexpr double kMinHessian = 1e-16;
// Floor on probabilities inside log() for loss reporting.
constexpr double kMinProb = 1e-15;

}  // namespace

double Sigmoid(double x) {
  if (x >= 0) {
    const double z = std::exp(-x);
    return 1.0 / (1.0 + z);
  }
  const double z = std::exp(x);
  return z / (1.0 + z);
}

void SoftmaxInPlace(double* p, uint32_t dims) {
  double max_v = p[0];
  for (uint32_t k = 1; k < dims; ++k) max_v = std::max(max_v, p[k]);
  double sum = 0.0;
  for (uint32_t k = 0; k < dims; ++k) {
    p[k] = std::exp(p[k] - max_v);
    sum += p[k];
  }
  for (uint32_t k = 0; k < dims; ++k) p[k] /= sum;
}

void SquareLoss::ComputeGradients(const std::vector<float>& labels,
                                  const std::vector<double>& margins,
                                  uint32_t begin, uint32_t end,
                                  GradientBuffer* out) const {
  for (uint32_t i = begin; i < end; ++i) {
    GradPair& gp = out->at(i, 0);
    gp.g = margins[i] - labels[i];
    gp.h = 1.0;
  }
}

double SquareLoss::ComputeLoss(const std::vector<float>& labels,
                               const std::vector<double>& margins,
                               uint32_t begin, uint32_t end) const {
  double total = 0.0;
  for (uint32_t i = begin; i < end; ++i) {
    const double d = margins[i] - labels[i];
    total += 0.5 * d * d;
  }
  return (end > begin) ? total / (end - begin) : 0.0;
}

void LogisticLoss::ComputeGradients(const std::vector<float>& labels,
                                    const std::vector<double>& margins,
                                    uint32_t begin, uint32_t end,
                                    GradientBuffer* out) const {
  for (uint32_t i = begin; i < end; ++i) {
    const double p = Sigmoid(margins[i]);
    GradPair& gp = out->at(i, 0);
    gp.g = p - labels[i];
    gp.h = std::max(p * (1.0 - p), kMinHessian);
  }
}

double LogisticLoss::ComputeLoss(const std::vector<float>& labels,
                                 const std::vector<double>& margins,
                                 uint32_t begin, uint32_t end) const {
  double total = 0.0;
  for (uint32_t i = begin; i < end; ++i) {
    const double p = Sigmoid(margins[i]);
    const double y = labels[i];
    total -= y * std::log(std::max(p, kMinProb)) +
             (1.0 - y) * std::log(std::max(1.0 - p, kMinProb));
  }
  return (end > begin) ? total / (end - begin) : 0.0;
}

void SoftmaxLoss::ComputeGradients(const std::vector<float>& labels,
                                   const std::vector<double>& margins,
                                   uint32_t begin, uint32_t end,
                                   GradientBuffer* out) const {
  const uint32_t c = num_classes_;
  std::vector<double> p(c);
  for (uint32_t i = begin; i < end; ++i) {
    for (uint32_t k = 0; k < c; ++k) {
      p[k] = margins[static_cast<size_t>(i) * c + k];
    }
    SoftmaxInPlace(p.data(), c);
    const uint32_t y = static_cast<uint32_t>(labels[i]);
    VERO_DCHECK_LT(y, c);
    for (uint32_t k = 0; k < c; ++k) {
      GradPair& gp = out->at(i, k);
      gp.g = p[k] - (k == y ? 1.0 : 0.0);
      gp.h = std::max(2.0 * p[k] * (1.0 - p[k]), kMinHessian);
    }
  }
}

double SoftmaxLoss::ComputeLoss(const std::vector<float>& labels,
                                const std::vector<double>& margins,
                                uint32_t begin, uint32_t end) const {
  const uint32_t c = num_classes_;
  std::vector<double> p(c);
  double total = 0.0;
  for (uint32_t i = begin; i < end; ++i) {
    for (uint32_t k = 0; k < c; ++k) {
      p[k] = margins[static_cast<size_t>(i) * c + k];
    }
    SoftmaxInPlace(p.data(), c);
    const uint32_t y = static_cast<uint32_t>(labels[i]);
    total -= std::log(std::max(p[y], kMinProb));
  }
  return (end > begin) ? total / (end - begin) : 0.0;
}

std::unique_ptr<Loss> MakeLossForTask(Task task, uint32_t num_classes) {
  switch (task) {
    case Task::kRegression:
      return std::make_unique<SquareLoss>();
    case Task::kBinary:
      return std::make_unique<LogisticLoss>();
    case Task::kMultiClass:
      VERO_CHECK_GE(num_classes, 3u);
      return std::make_unique<SoftmaxLoss>(num_classes);
  }
  VERO_LOG(Fatal) << "unknown task";
  return nullptr;
}

void ComputeGradientsParallel(const Loss& loss,
                              const std::vector<float>& labels,
                              const std::vector<double>& margins, uint32_t n,
                              uint32_t num_threads, GradientBuffer* out) {
  const uint32_t chunks = std::min(std::max(num_threads, 1u), n);
  ParallelFor(chunks, chunks, [&](size_t c) {
    const auto begin = static_cast<uint32_t>(uint64_t{n} * c / chunks);
    const auto end = static_cast<uint32_t>(uint64_t{n} * (c + 1) / chunks);
    loss.ComputeGradients(labels, margins, begin, end, out);
  });
}

}  // namespace vero
