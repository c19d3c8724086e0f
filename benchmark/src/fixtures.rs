//! The one seeded generator behind every workload.
//!
//! The raw columns stay in plain `Vec`s next to the engine tables built from
//! them, so the oracle can compute expected answers without calling into the
//! code under test.

use dc_engine::{Column, Table};

/// Region names: 20 distinct strings, so the storage layer dictionary-encodes
/// the column.
pub const REGIONS: [&str; 20] = [
    "andes",
    "baltic",
    "cascadia",
    "dakota",
    "everglade",
    "fjord",
    "gobi",
    "highveld",
    "iberia",
    "jutland",
    "kalahari",
    "levant",
    "mojave",
    "nordkapp",
    "ozark",
    "pampas",
    "quebec",
    "rhine",
    "sahel",
    "tundra",
];

/// Store tiers of the dimension table.
pub const TIERS: [&str; 5] = ["bronze", "silver", "gold", "platinum", "outlet"];

/// Number of stores (rows of the dimension table; `facts.store` is `i % STORES`).
pub const STORES: usize = 1000;

/// Days covered by `facts.day` (rising `0..DAYS`, so zone maps can prune it).
pub const DAYS: i64 = 365;

/// splitmix64: small, seedable, and not the engine's vendored `rand`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant at these sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The fact table as raw columns.
#[derive(Debug, Clone)]
pub struct Facts {
    /// Rising `0..DAYS` with the row index: prunable by zone maps.
    pub day: Vec<i64>,
    /// `i % STORES`: every block holds every store, so it never prunes.
    pub store: Vec<i64>,
    /// Index into [`REGIONS`].
    pub region: Vec<u8>,
    /// Pseudo-random customer id with about `n / 4` distinct values.
    pub cust: Vec<i64>,
    /// `0..=20`.
    pub qty: Vec<i64>,
    /// Two-decimal prices in `[1, 1001)`.
    pub price: Vec<f64>,
}

impl Facts {
    pub fn generate(rows: usize, seed: u64) -> Facts {
        let mut rng = Rng::new(seed ^ 0xFAC7_5EED);
        let customers = (rows as u64 / 4).max(1);
        let mut f = Facts {
            day: Vec::with_capacity(rows),
            store: Vec::with_capacity(rows),
            region: Vec::with_capacity(rows),
            cust: Vec::with_capacity(rows),
            qty: Vec::with_capacity(rows),
            price: Vec::with_capacity(rows),
        };
        for i in 0..rows {
            f.day.push(i as i64 * DAYS / rows as i64);
            f.store.push((i % STORES) as i64);
            f.region.push(rng.below(REGIONS.len() as u64) as u8);
            f.cust.push(rng.below(customers) as i64);
            f.qty.push(rng.below(21) as i64);
            f.price.push(1.0 + rng.below(100_000) as f64 / 100.0);
        }
        f
    }

    pub fn rows(&self) -> usize {
        self.day.len()
    }

    pub fn region_name(&self, row: usize) -> &'static str {
        REGIONS[self.region[row] as usize]
    }

    pub fn to_table(&self) -> Table {
        let regions: Vec<&str> = (0..self.rows()).map(|i| self.region_name(i)).collect();
        Table::new(vec![
            ("day", Column::from_ints(self.day.clone())),
            ("store", Column::from_ints(self.store.clone())),
            ("region", Column::from_strs(regions)),
            ("cust", Column::from_ints(self.cust.clone())),
            ("qty", Column::from_ints(self.qty.clone())),
            ("price", Column::from_floats(self.price.clone())),
        ])
        .expect("facts columns have equal lengths")
    }
}

/// The store dimension as raw columns.
#[derive(Debug, Clone)]
pub struct Stores {
    pub store: Vec<i64>,
    /// Index into [`TIERS`].
    pub tier: Vec<u8>,
}

impl Stores {
    pub fn generate(seed: u64) -> Stores {
        let mut rng = Rng::new(seed ^ 0x0057_09E5);
        Stores {
            store: (0..STORES as i64).collect(),
            tier: (0..STORES)
                .map(|_| rng.below(TIERS.len() as u64) as u8)
                .collect(),
        }
    }

    pub fn to_table(&self) -> Table {
        let tiers: Vec<&str> = self.tier.iter().map(|&t| TIERS[t as usize]).collect();
        Table::new(vec![
            ("store", Column::from_ints(self.store.clone())),
            ("tier", Column::from_strs(tiers)),
        ])
        .expect("stores columns have equal lengths")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_facts_and_other_seed_differs() {
        let a = Facts::generate(1000, 7);
        let b = Facts::generate(1000, 7);
        let c = Facts::generate(1000, 8);
        assert_eq!(a.cust, b.cust);
        assert_eq!(a.price, b.price);
        assert_ne!(a.cust, c.cust);
    }

    #[test]
    fn day_rises_over_the_whole_range() {
        let f = Facts::generate(7300, 1);
        assert_eq!(f.day[0], 0);
        assert_eq!(*f.day.last().unwrap(), DAYS - 1);
        assert!(f.day.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(f.to_table().num_rows(), 7300);
    }
}
