//! Property-based tests for test lists and the domain forge.

use filterwatch_urllists::{Category, DomainForge, TestList};
use proptest::prelude::*;

proptest! {
    /// The forge never repeats, regardless of how many domains we mint,
    /// and every domain is lowercase `.info` built from two words.
    #[test]
    fn forge_uniqueness(seed in any::<u64>(), n in 1usize..200) {
        let mut forge = DomainForge::new(seed);
        let domains = forge.mint_many(n);
        let set: std::collections::BTreeSet<&String> = domains.iter().collect();
        prop_assert_eq!(set.len(), n);
        for d in &domains {
            prop_assert!(d.ends_with(".info"));
            let stem = d.strip_suffix(".info").unwrap();
            prop_assert!(stem.chars().all(|c| c.is_ascii_lowercase()));
            prop_assert!(stem.len() >= 6);
        }
    }

    /// Same seed, same sequence; different seeds (almost surely) differ.
    #[test]
    fn forge_determinism(seed in any::<u64>()) {
        let a = DomainForge::new(seed).mint_many(10);
        let b = DomainForge::new(seed).mint_many(10);
        prop_assert_eq!(&a, &b);
        let c = DomainForge::new(seed.wrapping_add(1)).mint_many(10);
        prop_assert_ne!(a, c);
    }

    /// Global list size scales exactly with per-category count and every
    /// URL parses with a unique hostname.
    #[test]
    fn global_list_structure(k in 1usize..6) {
        let list = TestList::global(k);
        prop_assert_eq!(list.len(), 40 * k);
        let hosts = list.hostnames();
        prop_assert_eq!(hosts.len(), list.len());
        for u in &list.urls {
            let url = filterwatch_http::Url::parse(&u.url).unwrap();
            prop_assert!(Category::ALL.contains(&u.category));
            // Distinct registrable domains: blocking one list entry can
            // never conflate with another.
            prop_assert!(url.registrable_domain().contains(u.category.slug()));
        }
        let regs: std::collections::BTreeSet<String> = list
            .urls
            .iter()
            .map(|u| filterwatch_http::Url::parse(&u.url).unwrap().registrable_domain().to_string())
            .collect();
        prop_assert_eq!(regs.len(), list.len());
    }

    /// Local lists are deterministic per country and never share URLs
    /// with the global list.
    #[test]
    fn local_list_structure(cc in "[a-z]{2}", k in 1usize..4) {
        let local = TestList::local(&cc, k);
        prop_assert_eq!(local.len(), 12 * k);
        prop_assert_eq!(&local.urls, &TestList::local(&cc.to_ascii_uppercase(), k).urls);
        let global = TestList::global(k);
        for u in &local.urls {
            prop_assert!(!global.urls.iter().any(|g| g.url == u.url));
        }
    }

    /// Slug round-trip holds for every category (exhaustive, via index).
    #[test]
    fn slug_round_trip(idx in 0usize..40) {
        let cat = Category::ALL[idx];
        prop_assert_eq!(Category::from_slug(cat.slug()), Some(cat));
    }
}
