//! The Table 2 plugin set.
//!
//! Right-hand column of Table 2, verbatim:
//!
//! | Product            | WhatWeb signature                                        |
//! |--------------------|----------------------------------------------------------|
//! | Blue Coat          | Built-in detection or `Location` header contains hostname `www.cfauth.com` |
//! | McAfee SmartFilter | `Via-Proxy` header or HTML title contains "McAfee Web Gateway" |
//! | Netsweeper         | Built-in detection                                        |
//! | Websense           | `Location` header redirects to a host on port 15871 with parameter `ws-session` |

use filterwatch_pattern::Pattern;

use crate::matcher::Matcher;
use crate::plugin::Plugin;

// Plugin patterns are static literals that the plugin tests parse.
#[allow(clippy::expect_used)]
fn pat(src: &str) -> Pattern {
    Pattern::parse(src).expect("static pattern")
}

/// The full Table 2 plugin set.
pub fn table2_plugins() -> Vec<Plugin> {
    vec![bluecoat(), smartfilter(), netsweeper(), websense()]
}

/// Blue Coat: WhatWeb's built-in detection keys on the ProxySG banner;
/// the paper adds the `www.cfauth.com` redirect signature.
pub fn bluecoat() -> Plugin {
    Plugin::new("bluecoat", "bluecoat")
        .probing(8080, "/")
        .matching(Matcher::HeaderMatches("Server", pat("proxysg")))
        .matching(Matcher::TitleMatches(pat("proxysg")))
        .matching(Matcher::LocationMatches(pat("*www.cfauth.com*")))
}

/// McAfee SmartFilter / Web Gateway: `Via-Proxy` header or a
/// "McAfee Web Gateway" title.
pub fn smartfilter() -> Plugin {
    Plugin::new("mcafee-smartfilter", "smartfilter")
        .matching(Matcher::HeaderExists("Via-Proxy"))
        .matching(Matcher::TitleMatches(pat("mcafee web gateway")))
}

/// Netsweeper: WhatWeb ships a built-in signature keying on the server
/// banner and the WebAdmin console (checked on its well-known port).
/// The title match is pinned to the WebAdmin console title so vendor-run
/// sites that merely mention the product name do not validate.
pub fn netsweeper() -> Plugin {
    Plugin::new("netsweeper", "netsweeper")
        .probing(8080, "/webadmin/")
        .matching(Matcher::HeaderMatches("Server", pat("netsweeper")))
        .matching(Matcher::TitleMatches(pat("netsweeper webadmin")))
        .matching(Matcher::BodyMatches(pat(
            "webadmin/deny|netsweeper webadmin",
        )))
}

/// Websense: a redirect to port 15871 carrying a `ws-session` parameter;
/// the block-page service itself is probed as a secondary signal.
pub fn websense() -> Plugin {
    Plugin::new("websense", "websense")
        .probing(15871, "/")
        .matching(Matcher::LocationMatches(pat("*:15871/*ws-session*")))
        .matching(Matcher::BodyMatches(pat("blockpage.cgi|gateway websense")))
        .matching(Matcher::HeaderMatches("Server", pat("websense")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_http::{html, Response, Status};

    #[test]
    fn four_plugins_cover_four_products() {
        let plugins = table2_plugins();
        assert_eq!(plugins.len(), 4);
        let products: Vec<&str> = plugins.iter().map(|p| p.product).collect();
        assert_eq!(
            products,
            vec!["bluecoat", "smartfilter", "netsweeper", "websense"]
        );
    }

    #[test]
    fn bluecoat_signatures() {
        let p = bluecoat();
        let console = Response::new(Status::UNAUTHORIZED).with_header("Server", "ProxySG");
        assert!(p.matchers.iter().any(|m| m.evaluate(&console).is_some()));
        let redirect = Response::redirect("http://www.cfauth.com/?cfru=Zm9v");
        assert!(p.matchers.iter().any(|m| m.evaluate(&redirect).is_some()));
        let plain = Response::new(Status::OK).with_header("Server", "Apache");
        assert!(p.matchers.iter().all(|m| m.evaluate(&plain).is_none()));
    }

    #[test]
    fn smartfilter_signatures() {
        let p = smartfilter();
        let with_header = Response::new(Status::OK).with_header("Via-Proxy", "anything");
        assert!(p
            .matchers
            .iter()
            .any(|m| m.evaluate(&with_header).is_some()));
        let with_title = Response::html(html::page("McAfee Web Gateway - Notification", ""));
        assert!(p.matchers.iter().any(|m| m.evaluate(&with_title).is_some()));
    }

    #[test]
    fn websense_redirect_signature_requires_both_port_and_param() {
        let p = websense();
        let good = Response::redirect("http://gw:15871/cgi-bin/blockpage.cgi?ws-session=9");
        assert!(p.matchers.iter().any(|m| m.evaluate(&good).is_some()));
        let wrong_port = Response::redirect("http://gw:8080/cgi-bin/blockpage.cgi?ws-session=9");
        assert!(
            !p.matchers
                .iter()
                .any(|m| matches!(m, Matcher::LocationMatches(_))
                    && m.evaluate(&wrong_port).is_some())
        );
    }

    #[test]
    fn netsweeper_banner_signature() {
        let p = netsweeper();
        let console = Response::html(html::page("Netsweeper WebAdmin", ""))
            .with_header("Server", "netsweeper/5.1");
        assert!(p.matchers.iter().any(|m| m.evaluate(&console).is_some()));
    }
}
