// Coefficients for the vector transcendental approximations, shared by
// every vector backend (AVX2 / AVX-512) so all lane widths
// evaluate the exact same polynomials — elementwise results are then
// bitwise-identical across vector ISAs (no FMA, identical operation
// order per element; see docs/simd.md).
//
// The scalar (--simd=off) backend does NOT use these: it calls libm, and
// is the golden path. The vector approximations carry a bounded-ULP
// contract against double-precision references, enforced by
// tests/simd_test.cc:
//  * ExpNeg (exp on non-positive arguments, the only range the stable
//    sigmoid/tanh formulations need): classic range-reduction
//    exp(x) = 2^n * exp(r) with the Cephes/expf degree-5 polynomial for
//    exp(r) on |r| <= ln2/2.
//  * Tanh: odd rational x*P(x^2)/Q(x^2) on the clamped range
//    |x| <= kTanhClamp (tanh saturates to +-1 in float beyond it), with
//    an identity window |x| < kTanhTiny where tanh(x) == x in float.
#pragma once

namespace pup::la::simd {

// --- exp(x), x <= 0 ---------------------------------------------------
// Arguments below kExpLowClamp underflow past the smallest normal
// result the bit-shifted 2^n scaling can represent; clamping there keeps
// the result positive-normal (sigmoid/tanh saturate identically).
inline constexpr float kExpLowClamp = -87.3365478515625f;
inline constexpr float kLog2E = 1.44269504088896341f;
// ln(2) split into a high part exact in float and a low correction, so
// x - n*ln2 is computed without cancellation error.
inline constexpr float kExpC1 = 0.693359375f;
inline constexpr float kExpC2 = -2.12194440e-4f;
// exp(r) ~= 1 + r + r^2*(p5 + r*(p4 + ... )) for |r| <= 0.5*ln2,
// evaluated p0-first via Horner on r then one multiply by r^2.
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;

// --- tanh(x) ----------------------------------------------------------
// tanh(+-kTanhClamp) rounds to +-1 (minus one float ulp) already; the
// rational form is only evaluated inside the clamp.
inline constexpr float kTanhClamp = 7.90531110763549805f;
// Below this, tanh(x) == x to float precision (|x|^3/3 < ulp(x)).
inline constexpr float kTanhTiny = 4.0e-4f;
// Odd rational approximation, numerator x*P(x^2) over denominator
// Q(x^2), minimax-fit on [-kTanhClamp, kTanhClamp].
inline constexpr float kTanhAlpha1 = 4.89352455891786e-03f;
inline constexpr float kTanhAlpha3 = 6.37261928875436e-04f;
inline constexpr float kTanhAlpha5 = 1.48572235717979e-05f;
inline constexpr float kTanhAlpha7 = 5.12229709037114e-08f;
inline constexpr float kTanhAlpha9 = -8.60467152213735e-11f;
inline constexpr float kTanhAlpha11 = 2.00018790482477e-13f;
inline constexpr float kTanhAlpha13 = -2.76076847742355e-16f;
inline constexpr float kTanhBeta0 = 4.89352518554385e-03f;
inline constexpr float kTanhBeta2 = 2.26843463243900e-03f;
inline constexpr float kTanhBeta4 = 1.18534705686654e-04f;
inline constexpr float kTanhBeta6 = 1.19825839466702e-06f;

}  // namespace pup::la::simd
