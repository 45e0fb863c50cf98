//! Empty on purpose: this package exists for its `tests/` directory — one
//! property-based suite per `dim-*` crate. Run with
//! `cargo test --manifest-path extras/proptests/Cargo.toml [filter]`.
