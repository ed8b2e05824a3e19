//! A sorted interval map over `u32` keys (IPv4 address space).

/// Maps disjoint inclusive `[start, end]` ranges to values, with
/// `O(log n)` point lookup.
#[derive(Debug, Clone)]
pub struct IntervalMap<V> {
    /// Ranges sorted by start; kept sorted and disjoint by `insert`.
    ranges: Vec<(u32, u32, V)>,
}

impl<V> Default for IntervalMap<V> {
    fn default() -> Self {
        IntervalMap { ranges: Vec::new() }
    }
}

impl<V: Clone> IntervalMap<V> {
    /// An empty map.
    pub fn new() -> Self {
        IntervalMap::default()
    }

    /// Insert an inclusive range at its sorted slot. The map is disjoint,
    /// so an overlap can only reach the slot's two neighbours. Ranges
    /// inserted in ascending order are appended.
    ///
    /// # Panics
    /// If `start > end` or the range overlaps an existing one.
    pub fn insert(&mut self, start: u32, end: u32, value: V) {
        assert!(start <= end, "inverted range {start}..={end}");
        let slot = self.ranges.partition_point(|&(s, _, _)| s < start);
        let before = slot.checked_sub(1).map(|i| &self.ranges[i]);
        let neighbours = before.into_iter().chain(self.ranges.get(slot));
        for &(s, e, _) in neighbours {
            assert!(
                end < s || start > e,
                "range {start}..={end} overlaps existing {s}..={e}"
            );
        }
        self.ranges.insert(slot, (start, end, value));
    }

    /// Look up the value covering `key`.
    pub fn get(&self, key: u32) -> Option<&V> {
        let idx = self.ranges.partition_point(|&(s, _, _)| s <= key);
        let (s, e, ref v) = *self.ranges.get(idx.checked_sub(1)?)?;
        (s <= key && key <= e).then_some(v)
    }

    /// Number of ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the map holds no ranges.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Iterate ranges as `(start, end, value)`, ascending by start.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, &V)> {
        self.ranges.iter().map(|(s, e, v)| (*s, *e, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_out_of_order_inserts() {
        let mut m = IntervalMap::new();
        m.insert(100, 199, "b");
        m.insert(0, 99, "a");
        assert_eq!(m.get(0), Some(&"a"));
        assert_eq!(m.get(99), Some(&"a"));
        assert_eq!(m.get(100), Some(&"b"));
        assert_eq!(m.get(150), Some(&"b"));
        assert_eq!(m.get(199), Some(&"b"));
        assert_eq!(m.get(200), None);
        let starts: Vec<u32> = m.iter().map(|(s, _, _)| s).collect();
        assert_eq!(starts, [0, 100]);
    }

    #[test]
    fn empty_map() {
        let m: IntervalMap<u8> = IntervalMap::new();
        assert!(m.is_empty());
        assert_eq!(m.get(0), None);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlap_rejected() {
        let mut m = IntervalMap::new();
        m.insert(0, 10, ());
        m.insert(10, 20, ());
    }

    /// `[20, 29]` and `[40, 49]`, inserted out of order, to probe
    /// overlaps on either side of a slot.
    fn two_ranges() -> IntervalMap<()> {
        let mut m = IntervalMap::new();
        m.insert(40, 49, ());
        m.insert(20, 29, ());
        m
    }

    #[test]
    #[should_panic(expected = "overlaps existing 20..=29")]
    fn overlap_starting_inside_the_predecessor_rejected() {
        two_ranges().insert(25, 35, ());
    }

    #[test]
    #[should_panic(expected = "overlaps existing 40..=49")]
    fn overlap_reaching_into_the_successor_rejected() {
        two_ranges().insert(35, 40, ());
    }

    #[test]
    #[should_panic(expected = "overlaps existing 20..=29")]
    fn overlap_spanning_several_ranges_rejected() {
        two_ranges().insert(10, 60, ());
    }

    #[test]
    #[should_panic(expected = "overlaps existing 40..=49")]
    fn overlap_sharing_a_start_rejected() {
        two_ranges().insert(40, 40, ());
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_rejected() {
        let mut m = IntervalMap::new();
        m.insert(5, 4, ());
    }

    #[test]
    fn adjacent_ranges_ok() {
        let mut m = IntervalMap::new();
        m.insert(10, 19, 'b');
        m.insert(0, 9, 'a');
        m.insert(20, 29, 'c');
        assert_eq!(m.get(9), Some(&'a'));
        assert_eq!(m.get(10), Some(&'b'));
        assert_eq!(m.get(20), Some(&'c'));
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn full_u32_boundaries() {
        let mut m = IntervalMap::new();
        m.insert(u32::MAX - 1, u32::MAX, 'z');
        m.insert(0, 0, 'a');
        assert_eq!(m.get(u32::MAX), Some(&'z'));
        assert_eq!(m.get(0), Some(&'a'));
        assert_eq!(m.get(1), None);
    }
}
