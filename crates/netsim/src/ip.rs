//! IPv4 addresses and CIDR prefixes.
//!
//! The simulation uses its own 32-bit address type rather than
//! `std::net::Ipv4Addr` because prefix arithmetic (allocation, range
//! scans, interval lookups) is the common operation here, and an explicit
//! `u32` representation keeps that arithmetic obvious.

/// A simulated IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IpAddr(pub u32);

impl IpAddr {
    /// Build from dotted-quad octets.
    pub const fn from_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        IpAddr(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// The four octets, most significant first.
    pub const fn octets(&self) -> [u8; 4] {
        [
            (self.0 >> 24) as u8,
            (self.0 >> 16) as u8,
            (self.0 >> 8) as u8,
            self.0 as u8,
        ]
    }

    /// The numeric value.
    pub const fn value(&self) -> u32 {
        self.0
    }

    /// Parse a dotted quad (`203.0.113.7`) without allocating. The
    /// error is the octet that failed to parse, or `None` when `s` does
    /// not have four dot-separated parts.
    pub fn parse_quad(s: &str) -> Result<IpAddr, Option<&str>> {
        if s.bytes().filter(|&b| b == b'.').count() != 3 {
            return Err(None);
        }
        s.split('.').try_fold(IpAddr(0), |ip, part| {
            let octet: u8 = part.parse().map_err(|_| Some(part))?;
            Ok(IpAddr(ip.0 << 8 | u32::from(octet)))
        })
    }
}

impl std::fmt::Display for IpAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

impl std::str::FromStr for IpAddr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        IpAddr::parse_quad(s).map_err(|octet| match octet {
            Some(p) => format!("bad octet {p:?} in {s:?}"),
            None => format!("bad IPv4 address {s:?}"),
        })
    }
}

/// A CIDR prefix (`base/len`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cidr {
    base: u32,
    prefix_len: u8,
}

impl Cidr {
    /// Create a prefix; the base is masked down to the prefix boundary.
    pub fn new(base: IpAddr, prefix_len: u8) -> Self {
        assert!(prefix_len <= 32, "prefix length {prefix_len} > 32");
        Cidr {
            base: base.0 & Self::mask(prefix_len),
            prefix_len,
        }
    }

    fn mask(prefix_len: u8) -> u32 {
        if prefix_len == 0 {
            0
        } else {
            u32::MAX << (32 - prefix_len)
        }
    }

    /// First address in the prefix.
    pub const fn first(&self) -> IpAddr {
        IpAddr(self.base)
    }

    /// Last address in the prefix.
    pub fn last(&self) -> IpAddr {
        IpAddr(self.base | !Self::mask(self.prefix_len))
    }

    /// Prefix length in bits.
    pub const fn prefix_len(&self) -> u8 {
        self.prefix_len
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.prefix_len)
    }

    /// Whether `ip` falls inside this prefix.
    pub fn contains(&self, ip: IpAddr) -> bool {
        ip.0 & Self::mask(self.prefix_len) == self.base
    }

    /// Iterate every address in the prefix, in order.
    pub fn iter(&self) -> impl Iterator<Item = IpAddr> {
        let first = self.base as u64;
        let size = self.size();
        (first..first + size).map(|v| IpAddr(v as u32))
    }
}

impl std::fmt::Display for Cidr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.first(), self.prefix_len)
    }
}

impl std::str::FromStr for Cidr {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (ip, len) = s.split_once('/').ok_or_else(|| format!("bad CIDR {s:?}"))?;
        let ip: IpAddr = ip.parse()?;
        let len: u8 = len
            .parse()
            .map_err(|_| format!("bad prefix length in {s:?}"))?;
        if len > 32 {
            return Err(format!("prefix length {len} > 32"));
        }
        Ok(Cidr::new(ip, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ip_round_trip() {
        let ip: IpAddr = "203.0.113.7".parse().unwrap();
        assert_eq!(ip.octets(), [203, 0, 113, 7]);
        assert_eq!(ip.to_string(), "203.0.113.7");
    }

    #[test]
    fn ip_parse_errors() {
        assert!("1.2.3".parse::<IpAddr>().is_err());
        assert!("1.2.3.256".parse::<IpAddr>().is_err());
        assert!("a.b.c.d".parse::<IpAddr>().is_err());
    }

    #[test]
    fn cidr_masks_base() {
        let c = Cidr::new("10.1.2.3".parse().unwrap(), 24);
        assert_eq!(c.first().to_string(), "10.1.2.0");
        assert_eq!(c.last().to_string(), "10.1.2.255");
        assert_eq!(c.size(), 256);
    }

    #[test]
    fn cidr_contains() {
        let c: Cidr = "192.0.2.0/24".parse().unwrap();
        assert!(c.contains("192.0.2.0".parse().unwrap()));
        assert!(c.contains("192.0.2.255".parse().unwrap()));
        assert!(!c.contains("192.0.3.0".parse().unwrap()));
    }

    #[test]
    fn cidr_iter_covers_range() {
        let c: Cidr = "10.0.0.0/30".parse().unwrap();
        let ips: Vec<String> = c.iter().map(|ip| ip.to_string()).collect();
        assert_eq!(ips, vec!["10.0.0.0", "10.0.0.1", "10.0.0.2", "10.0.0.3"]);
    }

    #[test]
    fn cidr_display_and_parse() {
        let c: Cidr = "172.16.0.0/12".parse().unwrap();
        assert_eq!(c.to_string(), "172.16.0.0/12");
        assert!("1.2.3.4/33".parse::<Cidr>().is_err());
        assert!("1.2.3.4".parse::<Cidr>().is_err());
    }

    #[test]
    fn zero_and_full_prefixes() {
        let all: Cidr = "0.0.0.0/0".parse().unwrap();
        assert!(all.contains("255.255.255.255".parse().unwrap()));
        assert_eq!(all.size(), 1u64 << 32);
        let one: Cidr = "9.9.9.9/32".parse().unwrap();
        assert_eq!(one.size(), 1);
        assert_eq!(one.first(), one.last());
    }
}
