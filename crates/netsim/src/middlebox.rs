//! Middleboxes: in-path traffic inspection at network egress.
//!
//! A network's middlebox chain sees every HTTP request its clients send.
//! Each box returns a [`Verdict`]: pass the request on, answer it itself
//! (block pages), or break the connection (silent censorship styles the
//! paper deliberately avoids studying, but which the model supports for
//! completeness). Responses traverse the chain in reverse so proxies can
//! annotate them (e.g. Blue Coat `Via` headers).

use filterwatch_http::{Request, Response};

use crate::ip::IpAddr;
use crate::time::SimTime;

/// Context for one flow through a middlebox chain.
#[derive(Debug, Clone, Copy)]
pub struct FlowCtx {
    /// Virtual time of the request.
    pub now: SimTime,
    /// The client address originating the flow.
    pub client_ip: IpAddr,
}

/// A middlebox's decision for a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Let the request continue toward the origin.
    Forward,
    /// Intercept: answer with this response (block page, redirect, …).
    Respond(Box<Response>),
    /// Silently drop the request — the client sees a timeout.
    Drop,
    /// Send a TCP reset — the client sees a connection reset.
    Reset,
}

impl Verdict {
    /// Convenience constructor for [`Verdict::Respond`].
    pub fn respond(resp: Response) -> Self {
        Verdict::Respond(Box::new(resp))
    }
}

/// In-path traffic inspection device or software.
pub trait Middlebox: Send + Sync {
    /// A short identifier for logs and reports.
    fn name(&self) -> &str;

    /// Decide what happens to an outbound request.
    fn process_request(&self, req: &Request, ctx: &FlowCtx) -> Verdict;

    /// Optionally transform the origin's response on the way back.
    /// The default is a pass-through.
    fn process_response(&self, _req: &Request, resp: Response, _ctx: &FlowCtx) -> Response {
        resp
    }
}

/// A chain of middleboxes applied in order.
///
/// The first non-[`Verdict::Forward`] verdict wins; the response then
/// traverses only the boxes *before* the decider, in reverse.
#[derive(Default)]
pub struct Chain {
    boxes: Vec<std::sync::Arc<dyn Middlebox>>,
}

impl Chain {
    /// An empty chain (every request forwarded untouched).
    pub fn new() -> Self {
        Chain::default()
    }

    /// Append a middlebox at the egress end of the chain.
    pub fn push(&mut self, mb: std::sync::Arc<dyn Middlebox>) {
        self.boxes.push(mb);
    }

    /// Number of boxes in the chain.
    pub fn len(&self) -> usize {
        self.boxes.len()
    }

    /// Whether the chain is empty.
    pub fn is_empty(&self) -> bool {
        self.boxes.is_empty()
    }

    /// Names of the boxes, in order.
    pub fn names(&self) -> Vec<&str> {
        self.boxes.iter().map(|b| b.name()).collect()
    }

    /// Name of the box at `hop`, if the chain is that long.
    pub fn name_at(&self, hop: usize) -> Option<&str> {
        self.boxes.get(hop).map(|b| b.name())
    }

    /// Run the request through the chain.
    ///
    /// Returns either the final verdict and how many boxes the request
    /// passed before the verdict was rendered.
    pub fn run_request(&self, req: &Request, ctx: &FlowCtx) -> (Verdict, usize) {
        for (i, mb) in self.boxes.iter().enumerate() {
            match mb.process_request(req, ctx) {
                Verdict::Forward => continue,
                other => return (other, i),
            }
        }
        (Verdict::Forward, self.boxes.len())
    }

    /// Run a response back through the first `upto` boxes, in reverse.
    pub fn run_response(
        &self,
        req: &Request,
        mut resp: Response,
        ctx: &FlowCtx,
        upto: usize,
    ) -> Response {
        for mb in self.boxes[..upto.min(self.boxes.len())].iter().rev() {
            resp = mb.process_response(req, resp, ctx);
        }
        resp
    }
}

impl std::fmt::Debug for Chain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Chain")
            .field("boxes", &self.names())
            .finish()
    }
}

/// A wrapper that makes a middlebox *flap*: with probability
/// `fail_open_prob` a given flow bypasses the inner box entirely — the
/// filter "fails open", as the paper's Yemeni Netsweeper deployment did
/// when its license pool was exhausted (§4.4).
///
/// The fail-open decision is a pure function of `(seed, url, virtual
/// time)` rather than a draw from a shared RNG stream, for two reasons:
/// the request and response halves of a flow must agree on whether the
/// box was bypassed, and wrapping a box must not perturb any other
/// subsystem's random stream. Re-fetching the same URL at a different
/// virtual time re-rolls the decision, which is exactly the flapping
/// behaviour retries need to ride out.
pub struct Flapping {
    name: String,
    inner: std::sync::Arc<dyn Middlebox>,
    fail_open_prob: f64,
    seed: u64,
}

impl Flapping {
    /// Wrap `inner` so each flow fails open with `fail_open_prob`.
    ///
    /// # Errors
    /// When the probability is outside `[0, 1]`.
    pub fn try_new(
        inner: std::sync::Arc<dyn Middlebox>,
        fail_open_prob: f64,
        seed: u64,
    ) -> Result<Self, crate::fault::FaultProfileError> {
        if !fail_open_prob.is_finite() || !(0.0..=1.0).contains(&fail_open_prob) {
            return Err(crate::fault::FaultProfileError::BadProbability {
                field: "fail_open_prob",
                value: fail_open_prob,
            });
        }
        Ok(Flapping {
            name: format!("{}~flapping", inner.name()),
            inner,
            fail_open_prob,
            seed,
        })
    }

    /// Whether this flow bypasses the inner box (deterministic per
    /// `(seed, url, now)`).
    fn fails_open(&self, req: &Request, ctx: &FlowCtx) -> bool {
        if self.fail_open_prob <= 0.0 {
            return false;
        }
        if self.fail_open_prob >= 1.0 {
            return true;
        }
        let h = crate::rng::mix(
            self.seed,
            &format!("flap/{}/{}|{}", self.name, req.url, ctx.now.secs()),
        );
        // Top 53 bits → uniform f64 in [0, 1).
        let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
        unit < self.fail_open_prob
    }
}

impl Middlebox for Flapping {
    fn name(&self) -> &str {
        &self.name
    }

    fn process_request(&self, req: &Request, ctx: &FlowCtx) -> Verdict {
        if self.fails_open(req, ctx) {
            Verdict::Forward
        } else {
            self.inner.process_request(req, ctx)
        }
    }

    fn process_response(&self, req: &Request, resp: Response, ctx: &FlowCtx) -> Response {
        // Same pure draw as the request half, so a bypassed flow's
        // response is also untouched.
        if self.fails_open(req, ctx) {
            resp
        } else {
            self.inner.process_response(req, resp, ctx)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filterwatch_http::{Status, Url};
    use std::sync::Arc;

    struct Tagger(&'static str);

    impl Middlebox for Tagger {
        fn name(&self) -> &str {
            self.0
        }
        fn process_request(&self, _req: &Request, _ctx: &FlowCtx) -> Verdict {
            Verdict::Forward
        }
        fn process_response(&self, _req: &Request, resp: Response, _ctx: &FlowCtx) -> Response {
            resp.with_header(&format!("X-Via-{}", self.0), "1")
        }
    }

    struct Blocker;

    impl Middlebox for Blocker {
        fn name(&self) -> &str {
            "blocker"
        }
        fn process_request(&self, req: &Request, _ctx: &FlowCtx) -> Verdict {
            if req.url.host().contains("banned") {
                Verdict::respond(Response::text(Status::FORBIDDEN, "blocked"))
            } else {
                Verdict::Forward
            }
        }
    }

    fn ctx() -> FlowCtx {
        FlowCtx {
            now: SimTime::ZERO,
            client_ip: "5.0.0.1".parse().unwrap(),
        }
    }

    fn req(host: &str) -> Request {
        Request::get(Url::parse(&format!("http://{host}/")).unwrap())
    }

    #[test]
    fn empty_chain_forwards() {
        let chain = Chain::new();
        let (verdict, passed) = chain.run_request(&req("x.example"), &ctx());
        assert_eq!(verdict, Verdict::Forward);
        assert_eq!(passed, 0);
    }

    #[test]
    fn first_decider_wins() {
        let mut chain = Chain::new();
        chain.push(Arc::new(Tagger("a")));
        chain.push(Arc::new(Blocker));
        chain.push(Arc::new(Tagger("never")));
        let (verdict, passed) = chain.run_request(&req("banned.example"), &ctx());
        assert!(matches!(verdict, Verdict::Respond(_)));
        assert_eq!(passed, 1);
    }

    #[test]
    fn response_traverses_reverse_prefix() {
        let mut chain = Chain::new();
        chain.push(Arc::new(Tagger("outer")));
        chain.push(Arc::new(Tagger("inner")));
        let r = req("ok.example");
        let (verdict, passed) = chain.run_request(&r, &ctx());
        assert_eq!(verdict, Verdict::Forward);
        let resp = chain.run_response(&r, Response::new(Status::OK), &ctx(), passed);
        assert!(resp.headers.contains("X-Via-outer"));
        assert!(resp.headers.contains("X-Via-inner"));
    }

    #[test]
    fn blocked_flow_only_reverses_through_earlier_boxes() {
        let mut chain = Chain::new();
        chain.push(Arc::new(Tagger("before")));
        chain.push(Arc::new(Blocker));
        chain.push(Arc::new(Tagger("after")));
        let r = req("banned.example");
        let (verdict, passed) = chain.run_request(&r, &ctx());
        let Verdict::Respond(block_page) = verdict else {
            panic!("expected block")
        };
        let resp = chain.run_response(&r, *block_page, &ctx(), passed);
        assert!(resp.headers.contains("X-Via-before"));
        assert!(!resp.headers.contains("X-Via-after"));
    }

    #[test]
    fn flapping_fails_open_consistently_per_flow() {
        let flap = Flapping::try_new(Arc::new(Blocker), 0.5, 11).unwrap();
        assert_eq!(flap.name(), "blocker~flapping");
        let r = req("banned.example");
        let mut opened = 0;
        let mut blocked = 0;
        for secs in 0..200u64 {
            let ctx = FlowCtx {
                now: SimTime::from_secs(secs),
                client_ip: "5.0.0.1".parse().unwrap(),
            };
            let first = flap.process_request(&r, &ctx);
            // Same (url, time) → same decision, request and response
            // halves agree.
            assert_eq!(flap.process_request(&r, &ctx), first);
            match first {
                Verdict::Forward => opened += 1,
                Verdict::Respond(_) => blocked += 1,
                other => panic!("unexpected verdict {other:?}"),
            }
        }
        assert!((60..=140).contains(&opened), "opened {opened}");
        assert!(blocked > 0);
    }

    #[test]
    fn flapping_extremes_and_validation() {
        let always = Flapping::try_new(Arc::new(Blocker), 1.0, 3).unwrap();
        let never = Flapping::try_new(Arc::new(Blocker), 0.0, 3).unwrap();
        let r = req("banned.example");
        assert_eq!(always.process_request(&r, &ctx()), Verdict::Forward);
        assert!(matches!(
            never.process_request(&r, &ctx()),
            Verdict::Respond(_)
        ));
        assert!(Flapping::try_new(Arc::new(Blocker), 1.5, 3).is_err());
        assert!(Flapping::try_new(Arc::new(Blocker), f64::NAN, 3).is_err());
    }

    #[test]
    fn names_in_order() {
        let mut chain = Chain::new();
        chain.push(Arc::new(Tagger("a")));
        chain.push(Arc::new(Blocker));
        assert_eq!(chain.names(), vec!["a", "blocker"]);
        assert_eq!(chain.name_at(1), Some("blocker"));
        assert_eq!(chain.name_at(2), None);
        assert_eq!(chain.len(), 2);
        assert!(!chain.is_empty());
    }
}
