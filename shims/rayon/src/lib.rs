//! Empty offline stand-in for `rayon`: nothing in the workspace imports
//! it.
//!
//! Every library path runs on the calling thread (DESIGN.md §7). The
//! crate remains only because `jigsaw-core` and `gpu-sim` still list
//! `rayon` in their manifests, which keeps `hostbench/Cargo.lock`
//! resolving unchanged; those two manifest lines, hostbench's `[patch]`
//! entry and this crate go together with the next benchmark change.
