//! Deterministic trace and span identifiers.
//!
//! A [`TraceId`] is derived from the campaign seed, a per-collector
//! trace ordinal and the root step token — no ambient entropy, so the
//! same seed always yields the same ids and every artifact built on top
//! of the trace log is byte-stable. A [`SpanId`] is a trace-scoped
//! ordinal in span-allocation order; parent links between spans carry
//! the causal structure.

use std::fmt;

use filterwatch_telemetry::wire::{field, tagged, WireError};

/// 64-bit trace identifier, rendered as `t` + 16 lowercase hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Derive a trace id from the world seed, the collector's trace
    /// ordinal and the root span's step token.
    ///
    /// Same FNV-1a fold + splitmix64 avalanche discipline as
    /// `filterwatch_netsim::rng::mix`, re-implemented here so the trace
    /// crate stays below `netsim` in the dependency graph.
    pub fn derive(seed: u64, trace_seq: u64, root_token: &str) -> TraceId {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x1000_0000_01b3;
        let mut h = FNV_OFFSET ^ seed.rotate_left(17) ^ trace_seq.rotate_left(41);
        for b in root_token.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        let mut z = h.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        TraceId(z ^ (z >> 31))
    }

    /// Parse the `t<16 hex>` wire form.
    pub fn parse(s: &str) -> Result<TraceId, WireError> {
        let hex = tagged("trace", "t", s)?;
        if hex.len() != 16 {
            return Err(WireError::new(
                "trace",
                format!("{s:?} is not 16 hex digits"),
            ));
        }
        u64::from_str_radix(hex, 16)
            .map(TraceId)
            .map_err(|e| WireError::new("trace", format!("{s:?}: {e}")))
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:016x}", self.0)
    }
}

/// Trace-scoped span ordinal, rendered as `s<n>`. Ordinals start at 1;
/// 0 is reserved so the collector can hand out a cheap "not recording"
/// scope token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u32);

impl SpanId {
    /// Parse the `s<n>` wire form.
    pub fn parse(s: &str) -> Result<SpanId, WireError> {
        field("span", tagged("span", "s", s)?).map(SpanId)
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_stable_and_input_sensitive() {
        let a = TraceId::derive(5, 1, "campaign");
        assert_eq!(a, TraceId::derive(5, 1, "campaign"));
        assert_ne!(a, TraceId::derive(6, 1, "campaign"));
        assert_ne!(a, TraceId::derive(5, 2, "campaign"));
        assert_ne!(a, TraceId::derive(5, 1, "url-test"));
    }

    #[test]
    fn trace_id_round_trips() {
        let id = TraceId::derive(5, 3, "case");
        assert_eq!(TraceId::parse(&id.to_string()), Ok(id));
        assert!(TraceId::parse("0123").is_err());
        assert!(TraceId::parse("tshort").is_err());
        assert!(TraceId::parse("t00000000000000001").is_err());
    }

    #[test]
    fn span_id_round_trips() {
        assert_eq!(SpanId::parse("s41"), Ok(SpanId(41)));
        assert_eq!(SpanId(7).to_string(), "s7");
        assert!(SpanId::parse("41").is_err());
        assert!(SpanId::parse("sx").is_err());
    }
}
