//! Output checking: every measured join streams its pairs into a count
//! and an order-independent checksum, compared with what set-up computed
//! over an independent path.

use std::path::Path;

use rsj_rtree::DataId;

use crate::json::Json;

/// Pair count plus a checksum that ignores emission order (a wrapping
/// sum of per-pair hashes), so backends and plans that emit the same
/// multiset in different orders agree.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PairCheck {
    pub count: u64,
    pub checksum: u64,
}

impl PairCheck {
    #[inline]
    pub fn add(&mut self, r: DataId, s: DataId) {
        let mut h = r.0.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(s.0);
        h = (h ^ (h >> 31)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        self.count += 1;
        self.checksum = self.checksum.wrapping_add(h ^ (h >> 29));
    }
}

/// What set-up found for one seed and size (`expected.json`).
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub n: usize,
    pub seed: u64,
    pub pairs: PairCheck,
}

impl Expected {
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("n", Json::from(self.n)),
            ("seed", Json::from(self.seed)),
            ("pairs", Json::from(self.pairs.count)),
            ("checksum", Json::Str(self.pairs.checksum.to_string())),
        ])
    }

    pub fn load(path: &Path) -> Result<Expected, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text)?;
        let field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("{}: missing {k}", path.display()))
        };
        Ok(Expected {
            n: field("n")? as usize,
            seed: field("seed")?,
            pairs: PairCheck {
                count: field("pairs")?,
                checksum: field("checksum")?,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_ignores_order_but_not_content() {
        let pairs = [(1u64, 2u64), (3, 4), (5, 6), (2, 1)];
        let mut fwd = PairCheck::default();
        let mut rev = PairCheck::default();
        for &(a, b) in &pairs {
            fwd.add(DataId(a), DataId(b));
        }
        for &(a, b) in pairs.iter().rev() {
            rev.add(DataId(a), DataId(b));
        }
        assert_eq!(fwd, rev);
        let mut other = PairCheck::default();
        for &(a, b) in &[(1u64, 2u64), (3, 4), (5, 6), (1, 2)] {
            other.add(DataId(a), DataId(b));
        }
        assert_eq!(other.count, fwd.count);
        assert_ne!(other.checksum, fwd.checksum, "(2,1) is not (1,2)");
    }
}
