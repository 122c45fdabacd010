//! The six streaming policies every suite sweeps. The choose step compiles
//! one loop per policy rule, so a suite that leaves a policy out leaves a
//! kernel untested.

use parallel_balanced_allocations::stream::Policy;

/// All six streaming policies, the weight-aware ones included: under
/// uniform weights they still run code paths of their own.
pub const POLICIES: [Policy; 6] = [
    Policy::OneChoice,
    Policy::TwoChoice,
    Policy::DChoice(3),
    Policy::Threshold { d: 2, slack: 1 },
    Policy::WeightedTwoChoice,
    Policy::CapacityThreshold { d: 2, slack: 2 },
];
