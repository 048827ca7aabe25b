/**
 * @file
 * Version of the simulation model.
 *
 * The sweep-grid and fleet-spec fingerprints mix this constant in,
 * so a checkpoint journal written under another model is refused
 * (the fingerprint-mismatch error) instead of being resumed into a
 * mix of two models' results.  Bump it with any change that moves a
 * full-precision simulation result, even one that leaves every
 * printed digit alone.
 */

#ifndef SUIT_SIM_MODEL_VERSION_HH
#define SUIT_SIM_MODEL_VERSION_HH

#include <cstdint>

namespace suit::sim {

/**
 * 2: a shared-domain core's remaining work and arrival are
 * materialised only at its own events and at domain-level steps.
 */
inline constexpr std::uint64_t kModelVersion = 2;

} // namespace suit::sim

#endif // SUIT_SIM_MODEL_VERSION_HH
