//! Known-bad fixture for the map-order rule: hash containers, whose
//! iteration order can reach rendered output. Expected:
//! `clippy::disallowed_types` errors naming `HashMap` and `HashSet`.

use std::collections::{HashMap, HashSet};

pub struct ProductTally {
    tallies: HashMap<String, u64>,
    seen: HashSet<String>,
}

impl ProductTally {
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (product, hits) in self.tallies.iter() {
            out.push_str(&format_row(product, *hits));
        }
        for product in &self.seen {
            out.push_str(product);
        }
        out
    }
}

fn format_row(product: &str, hits: u64) -> String {
    format!("{product}\t{hits}\n")
}
