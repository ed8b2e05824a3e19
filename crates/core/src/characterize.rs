//! Stage 3: characterizing censored content (§5, Table 4).
//!
//! "The types of content found blocked by URL filters was determined by
//! querying lists of URLs through the measurement client. Two lists of
//! URLs were tested in each country; a 'global list' ... and a 'local
//! list' ... Manual analysis identified regular expressions
//! corresponding to the vendors' block pages and automated analysis
//! identified all URLs which matched a given block page regular
//! expression."

use std::collections::BTreeMap;

use filterwatch_http::Url;
use filterwatch_measure::MeasurementQuality;
use filterwatch_urllists::{Category, TestList};

use crate::report::TextTable;
use crate::world::{CampaignWorld, World};

/// The six protected-content columns of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Table4Column {
    /// Independent media / media freedom.
    MediaFreedom,
    /// Human rights content.
    HumanRights,
    /// Political reform and opposition.
    PoliticalReform,
    /// Non-pornographic gay and lesbian content.
    Lgbt,
    /// Religious criticism.
    ReligiousCriticism,
    /// Minority groups and religions.
    MinorityGroupsAndReligions,
}

impl Table4Column {
    /// The columns in table order.
    pub const ALL: [Table4Column; 6] = [
        Table4Column::MediaFreedom,
        Table4Column::HumanRights,
        Table4Column::PoliticalReform,
        Table4Column::Lgbt,
        Table4Column::ReligiousCriticism,
        Table4Column::MinorityGroupsAndReligions,
    ];

    /// Column header.
    pub fn name(&self) -> &'static str {
        match self {
            Table4Column::MediaFreedom => "Media Freedom",
            Table4Column::HumanRights => "Human Rights",
            Table4Column::PoliticalReform => "Political Reform",
            Table4Column::Lgbt => "LGBT",
            Table4Column::ReligiousCriticism => "Religious Criticism",
            Table4Column::MinorityGroupsAndReligions => "Minority Groups and Religions",
        }
    }

    /// Which ONI categories roll up into this column.
    pub fn categories(&self) -> &'static [Category] {
        match self {
            Table4Column::MediaFreedom => &[Category::MediaFreedom],
            Table4Column::HumanRights => &[Category::HumanRights, Category::WomensRights],
            Table4Column::PoliticalReform => &[
                Category::PoliticalReform,
                Category::OppositionParties,
                Category::CriticismOfGovernment,
            ],
            Table4Column::Lgbt => &[Category::Lgbt],
            Table4Column::ReligiousCriticism => &[Category::ReligiousCriticism],
            Table4Column::MinorityGroupsAndReligions => {
                &[Category::MinorityGroups, Category::MinorityFaiths]
            }
        }
    }
}

/// The characterization of one network.
#[derive(Debug, Clone)]
pub struct Characterization {
    /// Network name.
    pub isp: String,
    /// Country code of the network.
    pub country: String,
    /// AS number of the network.
    pub asn: u32,
    /// Blocked / tested counts per ONI category, over global+local lists.
    pub per_category: BTreeMap<Category, (usize, usize)>,
    /// Products attributed by block-page signatures (deduplicated).
    pub attributed_products: Vec<String>,
    /// Total URLs tested.
    pub urls_tested: usize,
    /// Total URLs blocked.
    pub urls_blocked: usize,
    /// URLs whose every run came back `Inconclusive` (quorum
    /// disagreement or breaker skips); zero on clean paths.
    pub urls_inconclusive: usize,
    /// Measurement-quality counters the characterization client
    /// accumulated (retries, breaker trips, quorum trials).
    pub quality: MeasurementQuality,
}

impl Characterization {
    /// Whether a Table 4 column is marked (any URL in its categories
    /// blocked).
    pub fn column_marked(&self, col: Table4Column) -> bool {
        col.categories().iter().any(|cat| {
            self.per_category
                .get(cat)
                .map(|&(blocked, _)| blocked > 0)
                .unwrap_or(false)
        })
    }

    /// The marked columns, in table order.
    pub fn marked_columns(&self) -> Vec<Table4Column> {
        Table4Column::ALL
            .into_iter()
            .filter(|&c| self.column_marked(c))
            .collect()
    }
}

/// Characterize what one ISP blocks: run the global list plus the ISP
/// country's local list through the measurement client, `runs` times.
///
/// A URL counts as blocked if any run blocks it — the paper repeats
/// tests because license-limited deployments filter intermittently
/// (§4.4 Challenge 2).
// ISP names and list URLs are static paper data that always resolve and parse.
#[allow(clippy::expect_used, clippy::panic)]
pub fn characterize(
    world: &World,
    isp: &str,
    per_category: usize,
    runs: usize,
) -> Characterization {
    let network = world
        .net
        .network_by_name(isp)
        .unwrap_or_else(|| panic!("unknown ISP {isp:?}"));
    let country = network.country.as_str().to_string();
    let asn = network.asn.0;
    let telemetry = world.net.telemetry().clone();
    let span = telemetry.span_start(
        filterwatch_telemetry::stage::CHARACTERIZE,
        isp,
        world.net.now().secs(),
    );

    let client = world.client(isp);
    let mut urls: Vec<(Url, Category)> = Vec::new();
    for list in [
        TestList::global(per_category),
        TestList::local(&country, per_category),
    ] {
        for u in &list.urls {
            urls.push((Url::parse(&u.url).expect("list URL"), u.category));
        }
    }

    let mut per_category_counts: BTreeMap<Category, (usize, usize)> = BTreeMap::new();
    let mut attributed: Vec<String> = Vec::new();
    let mut urls_blocked = 0;
    let mut urls_inconclusive = 0;
    let urls_tested = urls.len();
    for (url, cat) in &urls {
        let mut blocked = false;
        let mut conclusive_runs = 0;
        for _ in 0..runs.max(1) {
            let v = client.test_url(&world.net, url);
            if !v.verdict.is_inconclusive() {
                conclusive_runs += 1;
            }
            if v.verdict.is_blocked() {
                blocked = true;
                if let Some(p) = v.verdict.blocked_by() {
                    if !attributed.iter().any(|a| a == p) {
                        attributed.push(p.to_string());
                    }
                }
            }
        }
        let entry = per_category_counts.entry(*cat).or_insert((0, 0));
        entry.1 += 1;
        if blocked {
            entry.0 += 1;
            urls_blocked += 1;
        } else if conclusive_runs == 0 {
            urls_inconclusive += 1;
        }
    }

    telemetry.counter_add("characterize.urls_tested", isp, urls_tested as u64);
    telemetry.counter_add("characterize.urls_blocked", isp, urls_blocked as u64);
    telemetry.event(
        world.net.now().secs(),
        "characterize.done",
        &[
            ("isp", &isp),
            ("tested", &urls_tested),
            ("blocked", &urls_blocked),
        ],
    );
    telemetry.span_end(span, world.net.now().secs());

    Characterization {
        isp: isp.to_string(),
        country,
        asn,
        per_category: per_category_counts,
        attributed_products: attributed,
        urls_tested,
        urls_blocked,
        urls_inconclusive,
        quality: client.quality(),
    }
}

/// The four confirmed networks of Table 4, with their attributed product.
pub fn table4_networks() -> Vec<(&'static str, &'static str)> {
    vec![
        ("etisalat", "McAfee SmartFilter"),
        ("yemennet", "Netsweeper"),
        ("du", "Netsweeper"),
        ("ooredoo", "Netsweeper"),
    ]
}

/// Run the Table 4 characterization over the confirmed networks.
pub fn run_table4(world: &World, per_category: usize) -> Vec<(String, Characterization)> {
    table4_networks()
        .into_iter()
        .map(|(isp, product)| {
            (
                product.to_string(),
                characterize(world, isp, per_category, 3),
            )
        })
        .collect()
}

/// Render Table 4 as text (`x` marks a blocked theme).
pub fn render_table4(rows: &[(String, Characterization)]) -> String {
    let mut headers = vec!["Product".to_string(), "Where".to_string()];
    headers.extend(Table4Column::ALL.iter().map(|c| c.name().to_string()));
    let mut table = TextTable::new(headers);
    for (product, ch) in rows {
        let mut cells = vec![product.clone(), format!("{} (AS {})", ch.country, ch.asn)];
        for col in Table4Column::ALL {
            cells.push(if ch.column_marked(col) {
                "x".into()
            } else {
                String::new()
            });
        }
        table.row(cells);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::World;

    #[test]
    fn columns_cover_six_themes() {
        assert_eq!(Table4Column::ALL.len(), 6);
        for col in Table4Column::ALL {
            assert!(!col.categories().is_empty());
        }
    }

    #[test]
    fn etisalat_blocks_protected_content() {
        let w = World::paper(1);
        let ch = characterize(&w, "etisalat", 1, 1);
        assert!(ch.column_marked(Table4Column::MediaFreedom), "{ch:?}");
        assert!(ch.column_marked(Table4Column::Lgbt));
        assert!(ch.column_marked(Table4Column::PoliticalReform));
        assert!(ch.attributed_products.contains(&"smartfilter".to_string()));
        assert!(ch.urls_blocked > 0);
    }

    #[test]
    fn yemennet_blocks_media_rights_reform_via_custom_denies() {
        let w = World::paper(1);
        let ch = characterize(&w, "yemennet", 1, 3);
        assert!(ch.column_marked(Table4Column::MediaFreedom), "{ch:?}");
        assert!(ch.column_marked(Table4Column::HumanRights));
        assert!(ch.column_marked(Table4Column::PoliticalReform));
        // Yemen's policy does not target LGBT or religious criticism.
        assert!(!ch.column_marked(Table4Column::Lgbt));
    }

    #[test]
    fn ooredoo_blocks_lgbt_and_rights() {
        let w = World::paper(1);
        let ch = characterize(&w, "ooredoo", 1, 1);
        assert!(ch.column_marked(Table4Column::Lgbt), "{ch:?}");
        assert!(ch.column_marked(Table4Column::HumanRights));
        assert!(ch.attributed_products.contains(&"netsweeper".to_string()));
    }

    #[test]
    fn table4_every_theme_blocked_somewhere() {
        let w = World::paper(1);
        let rows = run_table4(&w, 1);
        assert_eq!(rows.len(), 4);
        for col in Table4Column::ALL {
            assert!(
                rows.iter().any(|(_, ch)| ch.column_marked(col)),
                "no network blocks {}",
                col.name()
            );
        }
        let text = render_table4(&rows);
        assert!(text.contains("Media Freedom"));
        assert!(text.contains("AE (AS 5384)"));
    }
}
