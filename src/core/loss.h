#ifndef VERO_CORE_LOSS_H_
#define VERO_CORE_LOSS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/gradients.h"
#include "data/dataset.h"

namespace vero {

/// Differentiable training objective: maps (label, margin) to first- and
/// second-order gradients (the LogitBoost expansion of §2.1.1) and to a loss
/// value for reporting.
///
/// Margins are raw additive tree outputs: one per instance for regression /
/// binary, C per instance for multi-class (softmax over margins).
class Loss {
 public:
  virtual ~Loss() = default;

  /// Gradient dimension C (1 except multi-class).
  virtual uint32_t num_dims() const = 0;

  /// Fills grad pairs for instance range [begin, end) into the same rows of
  /// `out`. `margins` is the flat N x C margin buffer.
  virtual void ComputeGradients(const std::vector<float>& labels,
                                const std::vector<double>& margins,
                                uint32_t begin, uint32_t end,
                                GradientBuffer* out) const = 0;

  /// Mean loss over instances [begin, end).
  virtual double ComputeLoss(const std::vector<float>& labels,
                             const std::vector<double>& margins,
                             uint32_t begin, uint32_t end) const = 0;

  virtual std::string name() const = 0;
};

/// Square loss: l = (y - m)^2 / 2; g = m - y; h = 1.
class SquareLoss final : public Loss {
 public:
  uint32_t num_dims() const override { return 1; }
  void ComputeGradients(const std::vector<float>& labels,
                        const std::vector<double>& margins, uint32_t begin,
                        uint32_t end, GradientBuffer* out) const override;
  double ComputeLoss(const std::vector<float>& labels,
                     const std::vector<double>& margins, uint32_t begin,
                     uint32_t end) const override;
  std::string name() const override { return "square"; }
};

/// Logistic loss for binary classification with labels in {0, 1}:
/// p = sigmoid(m); g = p - y; h = p(1-p).
class LogisticLoss final : public Loss {
 public:
  uint32_t num_dims() const override { return 1; }
  void ComputeGradients(const std::vector<float>& labels,
                        const std::vector<double>& margins, uint32_t begin,
                        uint32_t end, GradientBuffer* out) const override;
  double ComputeLoss(const std::vector<float>& labels,
                     const std::vector<double>& margins, uint32_t begin,
                     uint32_t end) const override;
  std::string name() const override { return "logistic"; }
};

/// Softmax cross-entropy for C >= 3 classes: p = softmax(margins);
/// g_k = p_k - 1{y=k}; h_k = 2 p_k (1 - p_k) (the standard GBDT
/// second-order surrogate).
class SoftmaxLoss final : public Loss {
 public:
  explicit SoftmaxLoss(uint32_t num_classes) : num_classes_(num_classes) {}
  uint32_t num_dims() const override { return num_classes_; }
  void ComputeGradients(const std::vector<float>& labels,
                        const std::vector<double>& margins, uint32_t begin,
                        uint32_t end, GradientBuffer* out) const override;
  double ComputeLoss(const std::vector<float>& labels,
                     const std::vector<double>& margins, uint32_t begin,
                     uint32_t end) const override;
  std::string name() const override { return "softmax"; }

 private:
  uint32_t num_classes_;
};

/// Creates the canonical loss for a task (square / logistic / softmax).
std::unique_ptr<Loss> MakeLossForTask(Task task, uint32_t num_classes);

/// Fills gradients for instances [0, n) fanning disjoint row ranges across
/// up to `num_threads` threads; each range writes its rows of `out` in
/// place. Each instance's pair is a pure function of its own (label,
/// margin), so the result is identical to the serial call; num_threads <= 1
/// IS the serial call.
void ComputeGradientsParallel(const Loss& loss,
                              const std::vector<float>& labels,
                              const std::vector<double>& margins, uint32_t n,
                              uint32_t num_threads, GradientBuffer* out);

/// Numerically stable sigmoid.
double Sigmoid(double x);

/// In-place softmax over `dims` consecutive doubles.
void SoftmaxInPlace(double* p, uint32_t dims);

}  // namespace vero

#endif  // VERO_CORE_LOSS_H_
