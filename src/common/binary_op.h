// Element-wise binary operator tags shared by the dense tensor and sparse
// matrix kernels, matching the operator set in Table 4 of the paper
// (+, -, *, /, ** and the broadcast add/sub/mul/div).

#ifndef GSAMPLER_COMMON_BINARY_OP_H_
#define GSAMPLER_COMMON_BINARY_OP_H_

#include <cmath>

namespace gs {

enum class BinaryOp {
  kAdd,
  kSub,
  kMul,
  kDiv,
  kPow,
};

inline const char* BinaryOpName(BinaryOp op) {
  switch (op) {
    case BinaryOp::kAdd:
      return "add";
    case BinaryOp::kSub:
      return "sub";
    case BinaryOp::kMul:
      return "mul";
    case BinaryOp::kDiv:
      return "div";
    case BinaryOp::kPow:
      return "pow";
  }
  return "?";
}

inline float ApplyBinaryOp(BinaryOp op, float a, float b) {
  switch (op) {
    case BinaryOp::kAdd:
      return a + b;
    case BinaryOp::kSub:
      return a - b;
    case BinaryOp::kMul:
      return a * b;
    case BinaryOp::kDiv:
      return a / b;
    case BinaryOp::kPow:
      // Squaring is the common case (LADIES, layer-wise weights) and a * a
      // is correctly rounded where powf need not be; every path squares alike.
      return b == 2.0f ? a * a : std::pow(a, b);
  }
  return 0.0f;
}

}  // namespace gs

#endif  // GSAMPLER_COMMON_BINARY_OP_H_
