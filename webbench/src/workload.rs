//! The three workloads as seeded, per-connection request streams.
//!
//! A [`Session`] is one keep-alive connection's client: it produces the
//! next request target, says what a correct response must contain, and
//! learns from each response body (the TPC-W cart id, which the server
//! assigns). Given the same seed, connection index and response bodies,
//! a session produces the same targets.

use crate::rng::Rng;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The TPC-W browsing mix over all 14 interactions.
    Browse,
    /// A hot-set read mix with 1 % cost writes, document cache on.
    CachedRw,
    /// Keep-alive GETs of the 2 KiB thumbnail images.
    StaticSmall,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Browse, Workload::CachedRw, Workload::StaticSmall];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Browse => "browse",
            Workload::CachedRw => "cached_rw",
            Workload::StaticSmall => "static_small",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the staged server runs with its document cache on.
    pub fn doc_cache(self) -> bool {
        self == Workload::CachedRw
    }
}

/// The TPC-W subjects (`staged_tpcw`'s schema list).
pub const SUBJECTS: [&str; 23] = [
    "ARTS",
    "BIOGRAPHIES",
    "BUSINESS",
    "CHILDREN",
    "COMPUTERS",
    "COOKING",
    "HEALTH",
    "HISTORY",
    "HOME",
    "HUMOR",
    "LITERATURE",
    "MYSTERY",
    "NON-FICTION",
    "PARENTING",
    "POLITICS",
    "REFERENCE",
    "RELIGION",
    "ROMANCE",
    "SELF-HELP",
    "SCIENCE-NATURE",
    "SCIENCE-FICTION",
    "SPORTS",
    "TRAVEL",
];

/// The TPC-W browsing mix in hundredths of a percent, as in
/// `staged_tpcw::workload`: 95 % browse, 5 % order.
const BROWSE_MIX: [(Page, u64); 14] = [
    (Page::Home, 2900),
    (Page::ProductDetail, 2100),
    (Page::SearchRequest, 1200),
    (Page::NewProducts, 1100),
    (Page::BestSellers, 1100),
    (Page::ExecuteSearch, 1100),
    (Page::ShoppingCart, 200),
    (Page::CustomerRegistration, 82),
    (Page::BuyRequest, 75),
    (Page::BuyConfirm, 69),
    (Page::OrderInquiry, 30),
    (Page::OrderDisplay, 25),
    (Page::AdminRequest, 10),
    (Page::AdminResponse, 9),
];

/// The `cached_rw` read mix in hundredths of a percent of reads.
const HOT_READ_MIX: [(Page, u64); 4] = [
    (Page::ProductDetail, 7000),
    (Page::Home, 1000),
    (Page::NewProducts, 1000),
    (Page::BestSellers, 1000),
];

/// Writes per 10 000 `cached_rw` operations (a write and its freshness
/// read count as two operations).
const HOT_WRITES_PER_10K: u64 = 100;

/// Items in the `cached_rw` hot set.
pub const HOT_ITEMS: usize = 16;

/// The 14 TPC-W interactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Page {
    /// `/home`
    Home,
    /// `/new_products`
    NewProducts,
    /// `/best_sellers`
    BestSellers,
    /// `/product_detail`
    ProductDetail,
    /// `/search_request`
    SearchRequest,
    /// `/execute_search`
    ExecuteSearch,
    /// `/shopping_cart`
    ShoppingCart,
    /// `/customer_registration`
    CustomerRegistration,
    /// `/buy_request`
    BuyRequest,
    /// `/buy_confirm`
    BuyConfirm,
    /// `/order_inquiry`
    OrderInquiry,
    /// `/order_display`
    OrderDisplay,
    /// `/admin_request`
    AdminRequest,
    /// `/admin_confirm`
    AdminResponse,
}

impl Page {
    /// The page's `<title>` marker, as the TPC-W handlers set it.
    pub fn marker(self) -> &'static str {
        match self {
            Page::Home => "<title>Home - TPC-W Bookstore</title>",
            Page::NewProducts => "<title>New Products - TPC-W Bookstore</title>",
            Page::BestSellers => "<title>Best Sellers - TPC-W Bookstore</title>",
            Page::ProductDetail => "<title>Product Detail - TPC-W Bookstore</title>",
            Page::SearchRequest => "<title>Search - TPC-W Bookstore</title>",
            Page::ExecuteSearch => "<title>Search Results - TPC-W Bookstore</title>",
            Page::ShoppingCart => "<title>Shopping Cart - TPC-W Bookstore</title>",
            Page::CustomerRegistration => "<title>Registration - TPC-W Bookstore</title>",
            Page::BuyRequest => "<title>Confirm Order - TPC-W Bookstore</title>",
            Page::BuyConfirm => "<title>Order Placed - TPC-W Bookstore</title>",
            Page::OrderInquiry => "<title>Order Inquiry - TPC-W Bookstore</title>",
            Page::OrderDisplay => "<title>Order Display - TPC-W Bookstore</title>",
            Page::AdminRequest => "<title>Admin: Edit Item - TPC-W Bookstore</title>",
            Page::AdminResponse => "<title>Admin: Item Updated - TPC-W Bookstore</title>",
        }
    }

    /// Whether the page changes the database.
    pub fn writes(self) -> bool {
        matches!(
            self,
            Page::ShoppingCart
                | Page::CustomerRegistration
                | Page::BuyConfirm
                | Page::AdminResponse
        )
    }
}

/// What a correct response to one request looks like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// A `200` page carrying the page's marker.
    Page(Page),
    /// A `200` product page showing the cost just written, in cents.
    Fresh {
        /// The item written.
        item: u64,
        /// The cost written, in cents.
        cents: u64,
    },
    /// A `200` with exactly the bytes of thumbnail `n`.
    Thumb(u64),
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// The request target (path and query).
    pub target: String,
    /// How to check the response.
    pub expect: Expect,
}

impl Req {
    /// Whether the request changes the database.
    pub fn writes(&self) -> bool {
        matches!(self.expect, Expect::Page(p) if p.writes())
    }
}

/// Formats cents as the `floatformat:2` text the product page shows.
pub fn cost_text(cents: u64) -> String {
    format!("{}.{:02}", cents / 100, cents % 100)
}

/// Checks a `200` response body against its expectation; `thumbs[n]`
/// holds the bytes of thumbnail `n`.
pub fn body_ok(expect: &Expect, body: &[u8], thumbs: &[Vec<u8>]) -> bool {
    match expect {
        Expect::Page(page) => contains(body, page.marker().as_bytes()),
        Expect::Fresh { cents, .. } => {
            let price = format!("Our price: <b>${}</b>", cost_text(*cents));
            contains(body, Page::ProductDetail.marker().as_bytes())
                && contains(body, price.as_bytes())
        }
        Expect::Thumb(n) => thumbs.get(*n as usize).is_some_and(|bytes| bytes == body),
    }
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    hay.windows(needle.len()).any(|w| w == needle)
}

/// Population sizes a session needs.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Items (ids are `1..=items`).
    pub items: u64,
    /// Customers (ids are `1..=customers`).
    pub customers: u64,
    /// Thumbnail images (`/img/thumb_0.gif` …).
    pub images: u64,
}

/// One connection's request stream.
#[derive(Debug, Clone)]
pub struct Session {
    workload: Workload,
    rng: Rng,
    sizes: Sizes,
    /// This connection's index; `cached_rw` writers only write items
    /// whose partition matches it, so a freshness read can only be
    /// spoiled by a stale serve, never by the other connection's write.
    conn: u64,
    conns: u64,
    c_id: u64,
    sc_id: u64,
    hot: Vec<u64>,
    /// The freshness read owed after a `cached_rw` write.
    owed: Option<(u64, u64)>,
}

impl Session {
    /// Connection `conn` of `conns` for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, conn: u64, conns: u64, sizes: Sizes) -> Self {
        let mut rng = Rng::new(seed, conn + 1);
        let c_id = rng.between(1, sizes.customers);
        Session {
            workload,
            rng,
            sizes,
            conn,
            conns,
            c_id,
            sc_id: 0,
            hot: hot_set(seed, sizes.items),
            owed: None,
        }
    }

    /// The next request.
    pub fn next_req(&mut self) -> Req {
        match self.workload {
            Workload::Browse => {
                let page = self.pick_page(&BROWSE_MIX);
                self.browse_req(page)
            }
            Workload::CachedRw => self.cached_req(),
            Workload::StaticSmall => {
                let n = self.rng.below(self.sizes.images);
                Req {
                    target: format!("/img/thumb_{n}.gif"),
                    expect: Expect::Thumb(n),
                }
            }
        }
    }

    /// Learns session state from a successful response body.
    pub fn observe(&mut self, req: &Req, body: &[u8]) {
        match req.expect {
            Expect::Page(Page::ShoppingCart) => {
                if let Some(id) = cart_id(body) {
                    self.sc_id = id;
                }
            }
            // The server empties the cart when the order is placed.
            Expect::Page(Page::BuyConfirm) => self.sc_id = 0,
            _ => {}
        }
    }

    fn pick_page(&mut self, mix: &[(Page, u64)]) -> Page {
        let total: u64 = mix.iter().map(|(_, w)| w).sum();
        let mut roll = self.rng.below(total);
        for &(page, weight) in mix {
            if roll < weight {
                return page;
            }
            roll -= weight;
        }
        mix[0].0
    }

    fn subject(&mut self) -> &'static str {
        SUBJECTS[self.rng.below(SUBJECTS.len() as u64) as usize]
    }

    fn item(&mut self) -> u64 {
        self.rng.between(1, self.sizes.items)
    }

    /// The target for a browsing-mix page, as `staged_tpcw::workload`'s
    /// emulated browser builds it.
    fn browse_req(&mut self, page: Page) -> Req {
        let c = self.c_id;
        let sc = self.sc_id;
        let target = match page {
            Page::Home => format!("/home?c_id={c}"),
            Page::NewProducts => {
                let s = encode(self.subject());
                format!("/new_products?subject={s}&c_id={c}")
            }
            Page::BestSellers => {
                let s = encode(self.subject());
                format!("/best_sellers?subject={s}&c_id={c}")
            }
            Page::ProductDetail => format!("/product_detail?i_id={}&c_id={c}", self.item()),
            Page::SearchRequest => format!("/search_request?c_id={c}"),
            Page::ExecuteSearch => {
                let kind = *self.rng.pick(&["title", "author", "subject"]);
                let query = match kind {
                    "subject" => self.subject(),
                    "author" => *self.rng.pick(&["Hop", "Tur", "Lov", "Knu", "Dij"]),
                    _ => *self
                        .rng
                        .pick(&["Winter", "Secret", "Star", "River", "Golden"]),
                };
                format!(
                    "/execute_search?type={kind}&search={}&c_id={c}",
                    encode(query)
                )
            }
            Page::ShoppingCart => {
                let item = self.item();
                let qty = self.rng.between(1, 3);
                format!("/shopping_cart?c_id={c}&sc_id={sc}&i_id={item}&qty={qty}")
            }
            Page::CustomerRegistration => format!("/customer_registration?c_id={c}&sc_id={sc}"),
            Page::BuyRequest => format!("/buy_request?c_id={c}&sc_id={sc}"),
            Page::BuyConfirm => format!("/buy_confirm?c_id={c}&sc_id={sc}"),
            Page::OrderInquiry => format!("/order_inquiry?c_id={c}"),
            Page::OrderDisplay => format!("/order_display?c_id={c}"),
            Page::AdminRequest => format!("/admin_request?i_id={}&c_id={c}", self.item()),
            Page::AdminResponse => {
                let item = self.item();
                let cents = self.rng.between(500, 9999);
                format!(
                    "/admin_confirm?i_id={item}&cost={}&c_id={c}",
                    cost_text(cents)
                )
            }
        };
        Req {
            target,
            expect: Expect::Page(page),
        }
    }

    /// `cached_rw`: a freshness read if one is owed, else a write
    /// (1 %) or a hot-set read.
    fn cached_req(&mut self) -> Req {
        let c = self.c_id;
        if let Some((item, cents)) = self.owed.take() {
            return Req {
                target: format!("/product_detail?i_id={item}&c_id={c}"),
                expect: Expect::Fresh { item, cents },
            };
        }
        if self.rng.below(10_000) < HOT_WRITES_PER_10K {
            let item = self.own_item();
            let cents = self.rng.between(500, 9999);
            self.owed = Some((item, cents));
            return Req {
                target: format!(
                    "/admin_confirm?i_id={item}&cost={}&c_id={c}",
                    cost_text(cents)
                ),
                expect: Expect::Page(Page::AdminResponse),
            };
        }
        match self.pick_page(&HOT_READ_MIX) {
            Page::ProductDetail => {
                let item = if self.rng.below(10) < 9 {
                    self.hot[self.rng.below(self.hot.len() as u64) as usize]
                } else {
                    self.item()
                };
                Req {
                    target: format!("/product_detail?i_id={item}&c_id={c}"),
                    expect: Expect::Page(Page::ProductDetail),
                }
            }
            page => self.browse_req(page),
        }
    }

    /// An item this connection may write: 90 % from its share of the
    /// hot set, else any item in its partition.
    fn own_item(&mut self) -> u64 {
        let own: Vec<u64> = self
            .hot
            .iter()
            .enumerate()
            .filter(|(i, _)| *i as u64 % self.conns == self.conn)
            .map(|(_, id)| *id)
            .collect();
        if self.rng.below(10) < 9 && !own.is_empty() {
            return *self.rng.pick(&own);
        }
        loop {
            let item = self.item();
            if item % self.conns == self.conn && !self.hot.contains(&item) {
                return item;
            }
        }
    }
}

/// The `cached_rw` hot set: `HOT_ITEMS` distinct item ids drawn from
/// the seed, shared by every connection.
pub fn hot_set(seed: u64, items: u64) -> Vec<u64> {
    let mut rng = Rng::new(seed, 0);
    let mut hot = Vec::with_capacity(HOT_ITEMS);
    while hot.len() < HOT_ITEMS.min(items as usize) {
        let id = rng.between(1, items);
        if !hot.contains(&id) {
            hot.push(id);
        }
    }
    hot
}

fn encode(s: &str) -> String {
    staged_http::percent_encode(s)
}

/// The server-assigned cart id in a rendered cart page.
fn cart_id(body: &[u8]) -> Option<u64> {
    let text = std::str::from_utf8(body).ok()?;
    let rest = &text[text.find("name=\"sc_id\" value=\"")? + 20..];
    let id: u64 = rest[..rest.find('"')?].parse().ok()?;
    (id > 0).then_some(id)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SIZES: Sizes = Sizes {
        items: 1000,
        customers: 2880,
        images: 200,
    };

    fn stream(w: Workload, seed: u64, conn: u64, n: usize) -> Vec<Req> {
        let mut s = Session::new(w, seed, conn, 2, SIZES);
        (0..n).map(|_| s.next_req()).collect()
    }

    #[test]
    fn same_seed_gives_the_same_request_stream() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 42, 0, 500), stream(w, 42, 0, 500), "{w:?}");
            assert_ne!(stream(w, 42, 0, 500), stream(w, 43, 0, 500), "{w:?}");
            assert_ne!(stream(w, 42, 0, 500), stream(w, 42, 1, 500), "{w:?}");
        }
    }

    #[test]
    fn browse_covers_every_page_and_writes_about_five_percent() {
        let reqs = stream(Workload::Browse, 9, 0, 40_000);
        for (page, _) in BROWSE_MIX {
            assert!(
                reqs.iter().any(|r| r.expect == Expect::Page(page)),
                "{page:?}"
            );
        }
        let writes = reqs.iter().filter(|r| r.writes()).count() as f64 / reqs.len() as f64;
        assert!((0.02..0.08).contains(&writes), "write share {writes}");
    }

    #[test]
    fn cached_rw_writes_are_followed_by_a_freshness_read_in_the_own_partition() {
        let hot = hot_set(5, SIZES.items);
        assert_eq!(hot.len(), HOT_ITEMS);
        for conn in 0..2 {
            let reqs = stream(Workload::CachedRw, 5, conn, 20_000);
            let mut writes = 0;
            for pair in reqs.windows(2) {
                if pair[0].writes() {
                    writes += 1;
                    let Expect::Fresh { item, .. } = pair[1].expect else {
                        panic!("write not followed by a freshness read: {:?}", pair[1]);
                    };
                    let own = match hot.iter().position(|h| *h == item) {
                        Some(i) => i as u64 % 2 == conn,
                        None => item % 2 == conn,
                    };
                    assert!(own, "item {item} outside connection {conn}'s partition");
                    assert!(pair[1].target.contains(&format!("i_id={item}&")));
                }
            }
            assert!((100..=300).contains(&writes), "writes {writes}");
        }
    }

    #[test]
    fn learns_and_forgets_the_cart_id() {
        let mut s = Session::new(Workload::Browse, 1, 0, 2, SIZES);
        let cart = Req {
            target: String::new(),
            expect: Expect::Page(Page::ShoppingCart),
        };
        s.observe(&cart, br#"<input type="hidden" name="sc_id" value="271">"#);
        assert_eq!(
            s.browse_req(Page::BuyRequest).target,
            format!("/buy_request?c_id={}&sc_id=271", s.c_id)
        );
        let done = Req {
            target: String::new(),
            expect: Expect::Page(Page::BuyConfirm),
        };
        s.observe(&done, b"");
        assert!(s.browse_req(Page::BuyRequest).target.ends_with("sc_id=0"));
    }

    #[test]
    fn freshness_check_needs_the_written_cost() {
        let page = format!(
            "{}<p>Our price: <b>$12.05</b></p>",
            Page::ProductDetail.marker()
        );
        let fresh = Expect::Fresh {
            item: 3,
            cents: 1205,
        };
        let stale = Expect::Fresh {
            item: 3,
            cents: 1206,
        };
        assert!(body_ok(&fresh, page.as_bytes(), &[]));
        assert!(!body_ok(&stale, page.as_bytes(), &[]));
        let thumbs = vec![b"GIF89a0".to_vec(), b"GIF89a1".to_vec()];
        assert!(body_ok(&Expect::Thumb(1), b"GIF89a1", &thumbs));
        assert!(!body_ok(&Expect::Thumb(0), b"GIF89a1", &thumbs));
        assert!(!body_ok(&Expect::Thumb(2), b"GIF89a1", &thumbs));
    }
}
