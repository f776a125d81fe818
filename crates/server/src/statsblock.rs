//! Versioned STATS sub-block framing (snapshot format v2).
//!
//! A v1 STATS response was one opaque JSON string. That shape cannot
//! grow (every addition is a silent schema change) and cannot tell a
//! scraper *when* each piece was captured — under an online rebalance
//! the registry totals and the per-shard metrics can straddle a
//! partition-map epoch and silently disagree. v2 frames the response as
//! tagged sub-blocks, each carrying its own version and the
//! partition-map epoch it was captured under:
//!
//! ```text
//! payload := count:u8 (tag:u8 version:u8 epoch:u64 json:val)*
//! ```
//!
//! A scraper merges only blocks whose epochs agree and skips tags it
//! does not know; the client retries once on epoch skew (the capture
//! raced a map change — the second scrape lands in the new epoch). The
//! per-block version lets one block's schema evolve without re-versioning
//! the whole opcode.
//!
//! This module is wire-path code: every decode is bounds-checked and
//! panic-free ([`ProtoError`] on anything malformed), enforced by
//! `dcs-lint`'s `[wire-path]` pass.

use crate::protocol::{put_val, Cursor, ProtoError};
use dcs_telemetry::Json;

/// Tag of the metrics-registry block
/// ([`dcs_telemetry::RegistrySnapshot::to_json`] shape, plus the
/// server's `server.*` keys).
pub const SB_REGISTRY: u8 = 1;
/// Tag of the miss-ratio-curve block
/// ([`dcs_telemetry::MrcRegistry::to_json`] shape).
pub const SB_MRC: u8 = 2;

/// Schema version stamped on every block this build emits.
pub const BLOCK_VERSION: u8 = 1;

/// One tagged sub-block of a STATS response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsBlock {
    /// What the block holds ([`SB_REGISTRY`], [`SB_MRC`], ...).
    pub tag: u8,
    /// Schema version of this block's JSON.
    pub version: u8,
    /// Partition-map epoch the snapshot was captured under.
    pub epoch: u64,
    /// The block body, rendered as JSON.
    pub json: String,
}

impl StatsBlock {
    /// The merged-JSON key a scraper files this block under.
    fn key(&self) -> String {
        match self.tag {
            SB_REGISTRY => "registry".to_string(),
            SB_MRC => "mrc".to_string(),
            other => format!("block_{other}"),
        }
    }
}

/// A whole STATS response: an ordered list of sub-blocks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StatsPayload {
    /// The sub-blocks, in the order the server captured them.
    pub blocks: Vec<StatsBlock>,
}

impl StatsPayload {
    /// Append the wire encoding to `out`.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        debug_assert!(self.blocks.len() <= u8::MAX as usize, "too many blocks");
        out.push(self.blocks.len() as u8);
        for b in &self.blocks {
            out.push(b.tag);
            out.push(b.version);
            out.extend_from_slice(&b.epoch.to_le_bytes());
            put_val(out, b.json.as_bytes());
        }
    }

    /// Decode from a frame cursor. Rejects nothing by tag (unknown tags
    /// are forward compatibility, the scraper's concern); malformed
    /// framing fails with [`ProtoError::Truncated`]/`Oversized` like any
    /// other frame body.
    pub(crate) fn decode(c: &mut Cursor<'_>) -> Result<Self, ProtoError> {
        let count = c.u8()? as usize;
        let mut blocks = Vec::with_capacity(count.min(16));
        for _ in 0..count {
            let tag = c.u8()?;
            let version = c.u8()?;
            let epoch = c.u64()?;
            let json = String::from_utf8_lossy(&c.val()?).into_owned();
            blocks.push(StatsBlock {
                tag,
                version,
                epoch,
                json,
            });
        }
        Ok(StatsPayload { blocks })
    }

    /// The block with `tag`, if present.
    pub fn block(&self, tag: u8) -> Option<&StatsBlock> {
        self.blocks.iter().find(|b| b.tag == tag)
    }

    /// Whether the blocks were captured under different partition-map
    /// epochs — the capture raced a rebalance and the pieces may
    /// disagree; scrape again.
    pub fn epoch_skew(&self) -> bool {
        self.blocks
            .windows(2)
            .any(|w| matches!(w, [a, b] if a.epoch != b.epoch))
    }

    /// The epoch shared by every block (the first block's, by
    /// construction, once [`StatsPayload::epoch_skew`] is false). 0 for
    /// an empty payload.
    pub fn epoch(&self) -> u64 {
        self.blocks.first().map_or(0, |b| b.epoch)
    }

    /// Merge the blocks into one JSON document for scrapers:
    /// `{"stats_epoch": N, "registry": {...}, "mrc": {...}}`. Blocks
    /// with unknown tags appear under `"block_<tag>"`; blocks whose
    /// version this build does not know are carried as they parsed
    /// (their schema is the emitter's contract, not ours).
    pub fn merged_json(&self) -> String {
        let epoch = ("stats_epoch".to_string(), Json::from(self.epoch()));
        // A block body is JSON by contract, but a peer produced it: one
        // that does not parse (empty, truncated, or crafted to splice keys
        // into the merged document) is carried as `null`.
        let blocks = self
            .blocks
            .iter()
            .map(|b| (b.key(), Json::parse(&b.json).unwrap_or(Json::Null)));
        Json::obj(std::iter::once(epoch).chain(blocks)).to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StatsPayload {
        StatsPayload {
            blocks: vec![
                StatsBlock {
                    tag: SB_REGISTRY,
                    version: BLOCK_VERSION,
                    epoch: 7,
                    json: "{\"counters\": {\"server.puts\": 1}}".into(),
                },
                StatsBlock {
                    tag: SB_MRC,
                    version: BLOCK_VERSION,
                    epoch: 7,
                    json: "{\"consumers\": []}".into(),
                },
            ],
        }
    }

    fn decode_all(bytes: &[u8]) -> Result<StatsPayload, ProtoError> {
        let mut c = Cursor::new(bytes);
        let p = StatsPayload::decode(&mut c)?;
        c.done()?;
        Ok(p)
    }

    #[test]
    fn roundtrip() {
        let p = sample();
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        assert_eq!(decode_all(&bytes).unwrap(), p);
    }

    #[test]
    fn empty_payload_roundtrips() {
        let p = StatsPayload::default();
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        assert_eq!(bytes, vec![0]);
        assert_eq!(decode_all(&bytes).unwrap(), p);
    }

    #[test]
    fn truncation_at_every_cut_is_an_error_not_a_panic() {
        let mut bytes = Vec::new();
        sample().encode(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(
                decode_all(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes must fail to decode"
            );
        }
    }

    #[test]
    fn epoch_skew_detected() {
        let mut p = sample();
        assert!(!p.epoch_skew());
        p.blocks[1].epoch = 8;
        assert!(p.epoch_skew());
    }

    #[test]
    fn merged_json_carries_every_block_under_its_key() {
        let doc = Json::parse(&sample().merged_json()).unwrap();
        assert_eq!(doc.get("stats_epoch"), Some(&Json::UInt(7)));
        assert_eq!(
            doc.at(&["registry", "counters", "server.puts"]),
            Some(&Json::UInt(1))
        );
        assert_eq!(doc.at(&["mrc", "consumers"]), Some(&Json::Arr(vec![])));
    }

    #[test]
    fn unknown_tags_decode_and_merge_under_generic_key() {
        let p = StatsPayload {
            blocks: vec![StatsBlock {
                tag: 200,
                version: 9,
                epoch: 1,
                json: "{}".into(),
            }],
        };
        let mut bytes = Vec::new();
        p.encode(&mut bytes);
        let back = decode_all(&bytes).unwrap();
        assert_eq!(back, p);
        let doc = Json::parse(&back.merged_json()).unwrap();
        assert_eq!(doc.get("block_200"), Some(&Json::Obj(vec![])));
    }

    #[test]
    fn unparseable_block_bodies_merge_as_null() {
        // Empty, truncated, and crafted to splice a key into the merged
        // object: none may corrupt the document a scraper parses.
        for body in ["", "{\"counters\": {", "1, \"stats_epoch\": 99"] {
            let p = StatsPayload {
                blocks: vec![StatsBlock {
                    tag: SB_MRC,
                    version: BLOCK_VERSION,
                    epoch: 3,
                    json: body.into(),
                }],
            };
            assert_eq!(
                Json::parse(&p.merged_json()),
                Ok(Json::obj([
                    ("stats_epoch", Json::UInt(3)),
                    ("mrc", Json::Null)
                ])),
                "body {body:?}"
            );
        }
    }
}
