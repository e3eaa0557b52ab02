//! Hand-compiled plans for XMark Q1–Q20.
//!
//! Pathfinder compiles each XMark query into a relational plan over the
//! pre/size/level table; these functions are those plans written
//! directly against the engine API — staircase-join axis steps
//! (`mbxq-axes`), XPath paths where the query is a pure path, and
//! hash/sort joins for the value-join queries. Both storage schemas run
//! the *same* function (everything is generic over [`TreeView`]), which
//! is exactly the `ro` vs `up` comparison of Figure 9.
//!
//! Every query returns a [`QueryResult`] with a row count and an
//! order-sensitive FNV checksum of its output values, so the benchmark
//! harness can assert that both schemas computed identical answers.

use mbxq_axes::{children, step, step_lifted, Axis, ContextSeq, NodeTest};
use mbxq_storage::{QnId, TreeView};
use mbxq_xml::QName;
use mbxq_xpath::{EvalOptions, XPath};
use std::collections::HashMap;

/// Number of XMark queries.
pub const QUERY_COUNT: usize = 20;

/// A query's observable outcome (for cross-schema verification).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryResult {
    /// Result cardinality.
    pub rows: usize,
    /// Order-sensitive checksum of the serialized result values.
    pub checksum: u64,
}

/// Errors from query execution.
#[derive(Debug)]
pub enum QueryError {
    /// Embedded XPath failed.
    Path(mbxq_xpath::XPathError),
    /// Query number out of range.
    UnknownQuery(usize),
}

impl core::fmt::Display for QueryError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            QueryError::Path(e) => write!(f, "{e}"),
            QueryError::UnknownQuery(q) => write!(f, "unknown XMark query Q{q}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<mbxq_xpath::XPathError> for QueryError {
    fn from(e: mbxq_xpath::XPathError) -> Self {
        QueryError::Path(e)
    }
}

/// Runs XMark query `q` (1-based) against `view`.
pub fn run_query<V: TreeView>(view: &V, q: usize) -> Result<QueryResult, QueryError> {
    run_query_opts(view, q, &EvalOptions::default())
}

/// [`run_query`] with evaluation options threaded through every XPath
/// selection the plan issues — how the workload harness runs the Q1–Q20
/// corpus against a store's morsel-execution pool or with forced
/// strategy arms.
pub fn run_query_opts<V: TreeView>(
    view: &V,
    q: usize,
    opts: &EvalOptions<'_>,
) -> Result<QueryResult, QueryError> {
    match q {
        1 => q1(view, opts),
        2 => q2(view, opts),
        3 => q3(view, opts),
        4 => q4(view, opts),
        5 => q5(view, opts),
        6 => q6(view, opts),
        7 => q7(view, opts),
        8 => q8(view, opts),
        9 => q9(view, opts),
        10 => q10(view, opts),
        11 => q11(view, opts),
        12 => q12(view, opts),
        13 => q13(view, opts),
        14 => q14(view, opts),
        15 => q15(view, opts),
        16 => q16(view, opts),
        17 => q17(view, opts),
        18 => q18(view, opts),
        19 => q19(view, opts),
        20 => q20(view, opts),
        other => Err(QueryError::UnknownQuery(other)),
    }
}

// ---------------------------------------------------------------------
// Checksum and small helpers
// ---------------------------------------------------------------------

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator to keep the checksum order/field sensitive.
        self.0 ^= 0x1f;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn sel<V: TreeView>(view: &V, opts: &EvalOptions<'_>, path: &str) -> Result<Vec<u64>, QueryError> {
    Ok(XPath::parse(path)?.select_from_root_opts(view, opts)?)
}

/// Resolves an element or attribute name against the view's pool —
/// once per query, so the per-node loops compare interned ids instead
/// of building and string-comparing a `QName` per visited node. `None`:
/// no node carries the name.
fn qn<V: TreeView>(view: &V, name: &str) -> Option<QnId> {
    view.pool().lookup_qname(&QName::local(name))
}

fn child_named<V: TreeView>(view: &V, pre: u64, name: Option<QnId>) -> Option<u64> {
    let name = name?;
    children(view, pre).find(|&c| view.name_id(c) == Some(name))
}

fn children_named<V: TreeView>(view: &V, pre: u64, name: Option<QnId>) -> Vec<u64> {
    let Some(name) = name else {
        return Vec::new();
    };
    children(view, pre)
        .filter(|&c| view.name_id(c) == Some(name))
        .collect()
}

fn attr<V: TreeView>(view: &V, pre: u64, name: Option<QnId>) -> Option<&str> {
    view.attr_str(pre, name?)
}

fn num<V: TreeView>(view: &V, pre: u64) -> f64 {
    view.string_value(pre).trim().parse().unwrap_or(f64::NAN)
}

fn result_from(rows: usize, fnv: Fnv) -> QueryResult {
    QueryResult {
        rows,
        checksum: fnv.0,
    }
}

// ---------------------------------------------------------------------
// The queries
// ---------------------------------------------------------------------

/// Q1: the name of the person with id `person0` (exact-match lookup).
fn q1<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let hits = sel(view, opts, "/site/people/person[@id=\"person0\"]/name")?;
    let mut f = Fnv::new();
    for &h in &hits {
        f.feed(&view.string_value(h));
    }
    Ok(result_from(hits.len(), f))
}

/// Q2: the increase of the first bid of every open auction. The
/// `for $a in //open_auction return $a/bidder[1]` loop runs as one
/// loop-lifted child step over all auctions at once.
fn q2<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let increase_qn = qn(view, "increase");
    let auctions = sel(view, opts, "/site/open_auctions/open_auction")?;
    let bidders = step_lifted(
        view,
        &ContextSeq::lift(&auctions),
        Axis::Child,
        &NodeTest::Name(QName::local("bidder")),
    );
    let mut f = Fnv::new();
    let mut rows = 0;
    for iter in bidders.iter_ids() {
        if let Some(&first) = bidders.pres_of_iter(iter).first() {
            if let Some(inc) = child_named(view, first, increase_qn) {
                f.feed(&view.string_value(inc));
                rows += 1;
            }
        }
    }
    Ok(result_from(rows, f))
}

/// Q3: auctions whose current highest bid is at least twice the first
/// bid; returns (first increase, last increase).
fn q3<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let increase_qn = qn(view, "increase");
    let auctions = sel(view, opts, "/site/open_auctions/open_auction")?;
    let per_auction = step_lifted(
        view,
        &ContextSeq::lift(&auctions),
        Axis::Child,
        &NodeTest::Name(QName::local("bidder")),
    );
    let mut f = Fnv::new();
    let mut rows = 0;
    for iter in per_auction.iter_ids() {
        let bidders = per_auction.pres_of_iter(iter);
        if bidders.len() < 2 {
            continue;
        }
        let first_inc = child_named(view, bidders[0], increase_qn).map(|p| num(view, p));
        let last_inc =
            child_named(view, bidders[bidders.len() - 1], increase_qn).map(|p| num(view, p));
        if let (Some(x), Some(y)) = (first_inc, last_inc) {
            if x * 2.0 <= y {
                f.feed(&format!("{x:.2}|{y:.2}"));
                rows += 1;
            }
        }
    }
    Ok(result_from(rows, f))
}

/// Q4: auctions where a bid by `person1` precedes a bid by `person2` in
/// document order (order-sensitive query); returns the initial price.
fn q4<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let bidder_qn = qn(view, "bidder");
    let personref_qn = qn(view, "personref");
    let initial_qn = qn(view, "initial");
    let person_qn = qn(view, "person");
    let auctions = sel(view, opts, "/site/open_auctions/open_auction")?;
    let mut f = Fnv::new();
    let mut rows = 0;
    for &a in &auctions {
        let mut saw_first = false;
        let mut qualifies = false;
        for b in children_named(view, a, bidder_qn) {
            if let Some(pref) = child_named(view, b, personref_qn) {
                match attr(view, pref, person_qn) {
                    Some("person1") => saw_first = true,
                    Some("person2") if saw_first => {
                        qualifies = true;
                        break;
                    }
                    _ => {}
                }
            }
        }
        if qualifies {
            if let Some(init) = child_named(view, a, initial_qn) {
                f.feed(&view.string_value(init));
                rows += 1;
            }
        }
    }
    Ok(result_from(rows, f))
}

/// Q5: how many closed auctions sold above 40.
fn q5<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let prices = sel(view, opts, "/site/closed_auctions/closed_auction/price")?;
    let count = prices.iter().filter(|&&p| num(view, p) >= 40.0).count();
    let mut f = Fnv::new();
    f.feed(&count.to_string());
    Ok(result_from(count.max(1), f))
}

/// Q6: number of items per region — one loop-lifted descendant staircase
/// join for all regions, then a per-iteration count.
fn q6<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let regions = sel(view, opts, "/site/regions/*")?;
    let item = NodeTest::Name(QName::local("item"));
    let items = step_lifted(view, &ContextSeq::lift(&regions), Axis::Descendant, &item);
    let mut f = Fnv::new();
    for iter in 0..regions.len() as u32 {
        f.feed(&items.pres_of_iter(iter).len().to_string());
    }
    Ok(result_from(regions.len(), f))
}

/// Q7: how many pieces of prose (descriptions, annotations, email
/// addresses) the database holds.
fn q7<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let d = sel(view, opts, "//description")?.len();
    let a = sel(view, opts, "//annotation")?.len();
    let e = sel(view, opts, "//emailaddress")?.len();
    let mut f = Fnv::new();
    f.feed(&(d + a + e).to_string());
    Ok(result_from(d + a + e, f))
}

/// Builds `person id → name pre` for the join queries.
fn person_index<V: TreeView>(
    view: &V,
    opts: &EvalOptions<'_>,
) -> Result<Vec<(String, u64)>, QueryError> {
    let id_qn = qn(view, "id");
    let persons = sel(view, opts, "/site/people/person")?;
    let mut out = Vec::with_capacity(persons.len());
    for &p in &persons {
        if let Some(id) = attr(view, p, id_qn) {
            out.push((id.to_string(), p));
        }
    }
    Ok(out)
}

/// Q8: for every person, the number of items they bought (hash join
/// person ↔ closed_auction buyer).
fn q8<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let name_qn = qn(view, "name");
    let person_qn = qn(view, "person");
    let buyers = sel(view, opts, "/site/closed_auctions/closed_auction/buyer")?;
    let mut bought: HashMap<String, usize> = HashMap::new();
    for &b in &buyers {
        if let Some(id) = attr(view, b, person_qn) {
            *bought.entry(id.to_string()).or_default() += 1;
        }
    }
    let persons = person_index(view, opts)?;
    let mut f = Fnv::new();
    for (id, p) in &persons {
        let n = bought.get(id).copied().unwrap_or(0);
        let name = child_named(view, *p, name_qn)
            .map(|x| view.string_value(x))
            .unwrap_or_default();
        f.feed(&format!("{name}|{n}"));
    }
    Ok(result_from(persons.len(), f))
}

/// Q9: like Q8 but joining through to *European* items — person ↔
/// closed_auction ↔ item (two hash joins).
fn q9<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let name_qn = qn(view, "name");
    let buyer_qn = qn(view, "buyer");
    let itemref_qn = qn(view, "itemref");
    let (id_qn, person_qn, item_qn) = (qn(view, "id"), qn(view, "person"), qn(view, "item"));
    // European item id → name.
    let eu_items = sel(view, opts, "/site/regions/europe/item")?;
    let mut eu: HashMap<String, String> = HashMap::new();
    for &i in &eu_items {
        if let (Some(id), Some(name)) = (attr(view, i, id_qn), child_named(view, i, name_qn)) {
            eu.insert(id.to_string(), view.string_value(name));
        }
    }
    // buyer person id → european item names bought.
    let closed = sel(view, opts, "/site/closed_auctions/closed_auction")?;
    let mut bought: HashMap<String, Vec<String>> = HashMap::new();
    for &c in &closed {
        let buyer = child_named(view, c, buyer_qn).and_then(|b| attr(view, b, person_qn));
        let item = child_named(view, c, itemref_qn).and_then(|i| attr(view, i, item_qn));
        if let (Some(buyer), Some(item)) = (buyer, item) {
            if let Some(name) = eu.get(item) {
                bought
                    .entry(buyer.to_string())
                    .or_default()
                    .push(name.clone());
            }
        }
    }
    let persons = person_index(view, opts)?;
    let mut f = Fnv::new();
    let mut rows = 0;
    for (id, p) in &persons {
        let name = child_named(view, *p, name_qn)
            .map(|x| view.string_value(x))
            .unwrap_or_default();
        if let Some(items) = bought.get(id) {
            for item in items {
                f.feed(&format!("{name}|{item}"));
                rows += 1;
            }
        } else {
            f.feed(&name);
        }
    }
    Ok(result_from(rows.max(persons.len()), f))
}

/// Q10: group people by their interest categories and materialize their
/// profile data (the expensive restructuring query).
fn q10<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let profile_qn = qn(view, "profile");
    let name_qn = qn(view, "name");
    let emailaddress_qn = qn(view, "emailaddress");
    let gender_qn = qn(view, "gender");
    let interest_qn = qn(view, "interest");
    let (income_qn, category_qn) = (qn(view, "income"), qn(view, "category"));
    let persons = sel(view, opts, "/site/people/person")?;
    let mut groups: HashMap<String, Vec<String>> = HashMap::new();
    for &p in &persons {
        let Some(profile) = child_named(view, p, profile_qn) else {
            continue;
        };
        let income = attr(view, profile, income_qn).unwrap_or_default();
        let name = child_named(view, p, name_qn)
            .map(|x| view.string_value(x))
            .unwrap_or_default();
        let email = child_named(view, p, emailaddress_qn)
            .map(|x| view.string_value(x))
            .unwrap_or_default();
        let gender = child_named(view, profile, gender_qn)
            .map(|x| view.string_value(x))
            .unwrap_or_default();
        let record = format!("{name}|{email}|{income}|{gender}");
        for interest in children_named(view, profile, interest_qn) {
            if let Some(cat) = attr(view, interest, category_qn) {
                groups
                    .entry(cat.to_string())
                    .or_default()
                    .push(record.clone());
            }
        }
    }
    let mut cats: Vec<_> = groups.into_iter().collect();
    cats.sort_by(|a, b| a.0.cmp(&b.0));
    let mut f = Fnv::new();
    let mut rows = 0;
    for (cat, records) in cats {
        f.feed(&cat);
        for r in records {
            f.feed(&r);
            rows += 1;
        }
    }
    Ok(result_from(rows, f))
}

/// Q11: for every person, how many open auctions had an initial price
/// the person's income covers 5000-fold (value join person.income vs
/// auction.initial; sort + binary search instead of O(P·A)).
fn q11<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let profile_qn = qn(view, "profile");
    let income_qn = qn(view, "income");
    let mut initials: Vec<f64> = sel(view, opts, "/site/open_auctions/open_auction/initial")?
        .iter()
        .map(|&p| num(view, p))
        .collect();
    initials.sort_by(f64::total_cmp);
    let persons = sel(view, opts, "/site/people/person")?;
    let mut f = Fnv::new();
    for &p in &persons {
        let income = child_named(view, p, profile_qn)
            .and_then(|pr| attr(view, pr, income_qn))
            .and_then(|s| s.parse::<f64>().ok());
        let n = match income {
            Some(inc) => initials.partition_point(|&i| i * 5000.0 < inc),
            None => 0,
        };
        f.feed(&n.to_string());
    }
    Ok(result_from(persons.len(), f))
}

/// Q12: like Q11 but only for persons with income over 50000.
fn q12<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let profile_qn = qn(view, "profile");
    let income_qn = qn(view, "income");
    let mut initials: Vec<f64> = sel(view, opts, "/site/open_auctions/open_auction/initial")?
        .iter()
        .map(|&p| num(view, p))
        .collect();
    initials.sort_by(f64::total_cmp);
    let persons = sel(view, opts, "/site/people/person")?;
    let mut f = Fnv::new();
    let mut rows = 0;
    for &p in &persons {
        let Some(inc) = child_named(view, p, profile_qn)
            .and_then(|pr| attr(view, pr, income_qn))
            .and_then(|s| s.parse::<f64>().ok())
        else {
            continue;
        };
        if inc > 50_000.0 {
            let n = initials.partition_point(|&i| i * 5000.0 < inc);
            f.feed(&n.to_string());
            rows += 1;
        }
    }
    Ok(result_from(rows.max(1), f))
}

/// Q13: names and full descriptions of Australian items (reconstruction
/// of subtrees).
fn q13<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let name_qn = qn(view, "name");
    let description_qn = qn(view, "description");
    let items = sel(view, opts, "/site/regions/australia/item")?;
    let mut f = Fnv::new();
    for &i in &items {
        let name = child_named(view, i, name_qn)
            .map(|x| view.string_value(x))
            .unwrap_or_default();
        // Materialize the description subtree (string value walks the
        // whole region — the serialization cost the query measures).
        let desc = child_named(view, i, description_qn)
            .map(|d| view.string_value(d))
            .unwrap_or_default();
        f.feed(&format!("{name}|{desc}"));
    }
    Ok(result_from(items.len(), f))
}

/// Q14: items whose description mentions "gold" (full-text scan).
fn q14<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let description_qn = qn(view, "description");
    let name_qn = qn(view, "name");
    let items = sel(view, opts, "//item")?;
    let mut f = Fnv::new();
    let mut rows = 0;
    for &i in &items {
        let Some(desc) = child_named(view, i, description_qn) else {
            continue;
        };
        if view.string_value(desc).contains("gold") {
            if let Some(name) = child_named(view, i, name_qn) {
                f.feed(&view.string_value(name));
                rows += 1;
            }
        }
    }
    Ok(result_from(rows, f))
}

/// Q15's long, fully-specified downward path.
pub const Q15_PATH: &str = "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword/text()";

/// The pure-XPath corpus of the Q1–Q20 plans: every `(label, path)`
/// selection the hand-compiled queries issue through [`XPath`], plus
/// the selective descendant probes Q7 decomposes into. The plan and
/// parallel oracles (`tests/plan_oracle.rs`, `tests/par_oracle.rs`)
/// drive exactly this corpus through every forced strategy arm.
pub const QUERY_PATHS: &[(&str, &str)] = &[
    (
        "q01_person0_name",
        "/site/people/person[@id=\"person0\"]/name",
    ),
    ("q02_open_auctions", "/site/open_auctions/open_auction"),
    (
        "q05_closed_prices",
        "/site/closed_auctions/closed_auction/price",
    ),
    ("q06_regions", "/site/regions/*"),
    ("q07_descriptions", "//description"),
    ("q07_annotations", "//annotation"),
    ("q07_emailaddresses", "//emailaddress"),
    ("q08_buyers", "/site/closed_auctions/closed_auction/buyer"),
    ("q09_europe_items", "/site/regions/europe/item"),
    ("q10_persons", "/site/people/person"),
    ("q11_initials", "/site/open_auctions/open_auction/initial"),
    ("q13_australia_items", "/site/regions/australia/item"),
    ("q14_items", "//item"),
    ("q15_deep_path", Q15_PATH),
    ("q16_keywords", "//keyword"),
    ("q17_no_homepage", "/site/people/person[not(homepage)]/name"),
    ("q19_locations", "//item/location"),
    ("q20_incomes", "/site/people/person/profile"),
    ("sel_personref", "//personref"),
    ("sel_homepage_exists", "/site/people/person[homepage]/name"),
    (
        "sel_first_bidder",
        "/site/open_auctions/open_auction/bidder[1]/increase",
    ),
];

/// Q15: a long, fully-specified downward path (rewards positional
/// skipping).
fn q15<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let hits = sel(view, opts, Q15_PATH)?;
    let mut f = Fnv::new();
    for &h in &hits {
        f.feed(&view.string_value(h));
    }
    Ok(result_from(hits.len(), f))
}

/// Q16: like Q15, but returning the auction's seller (a long path plus
/// an upward step back to the auction).
fn q16<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let seller_qn = qn(view, "seller");
    let person_qn = qn(view, "person");
    let keywords = sel(
        view,
        opts,
        "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
    )?;
    let auction_test = NodeTest::Name(QName::local("closed_auction"));
    let auctions = step(view, &keywords, Axis::Ancestor, &auction_test);
    let mut f = Fnv::new();
    let mut rows = 0;
    for &a in &auctions {
        if let Some(seller) = child_named(view, a, seller_qn) {
            if let Some(id) = attr(view, seller, person_qn) {
                f.feed(id);
                rows += 1;
            }
        }
    }
    Ok(result_from(rows, f))
}

/// Q17: people without a homepage (negated existence predicate).
fn q17<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let hits = sel(view, opts, "/site/people/person[not(homepage)]/name")?;
    let mut f = Fnv::new();
    for &h in &hits {
        f.feed(&view.string_value(h));
    }
    Ok(result_from(hits.len(), f))
}

/// Q18: apply a (currency conversion) function to every open auction's
/// initial price — pure numeric processing.
fn q18<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let initials = sel(view, opts, "/site/open_auctions/open_auction/initial")?;
    let mut f = Fnv::new();
    for &i in &initials {
        let converted = num(view, i) * 2.20371;
        f.feed(&format!("{converted:.4}"));
    }
    Ok(result_from(initials.len(), f))
}

/// Q19: items with their location, ordered by location (global sort).
fn q19<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let location_qn = qn(view, "location");
    let name_qn = qn(view, "name");
    let items = sel(view, opts, "//item")?;
    let mut rows: Vec<(String, String)> = Vec::with_capacity(items.len());
    for &i in &items {
        let loc = child_named(view, i, location_qn)
            .map(|x| view.string_value(x))
            .unwrap_or_default();
        let name = child_named(view, i, name_qn)
            .map(|x| view.string_value(x))
            .unwrap_or_default();
        rows.push((loc, name));
    }
    rows.sort();
    let mut f = Fnv::new();
    for (loc, name) in &rows {
        f.feed(&format!("{name}|{loc}"));
    }
    Ok(result_from(rows.len(), f))
}

/// Q20: counts of people per income bracket (aggregation with
/// complementary predicates).
fn q20<V: TreeView>(view: &V, opts: &EvalOptions<'_>) -> Result<QueryResult, QueryError> {
    let profile_qn = qn(view, "profile");
    let income_qn = qn(view, "income");
    let persons = sel(view, opts, "/site/people/person")?;
    let (mut high, mut mid, mut low, mut none) = (0usize, 0, 0, 0);
    for &p in &persons {
        match child_named(view, p, profile_qn)
            .and_then(|pr| attr(view, pr, income_qn))
            .and_then(|s| s.parse::<f64>().ok())
        {
            Some(i) if i >= 100_000.0 => high += 1,
            Some(i) if i >= 30_000.0 => mid += 1,
            Some(_) => low += 1,
            None => none += 1,
        }
    }
    let mut f = Fnv::new();
    for n in [high, mid, low, none] {
        f.feed(&n.to_string());
    }
    Ok(result_from(4, f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, XMarkConfig};
    use mbxq_storage::ReadOnlyDoc;

    fn doc() -> ReadOnlyDoc {
        ReadOnlyDoc::parse_str(&generate(&XMarkConfig::tiny(11))).unwrap()
    }

    #[test]
    fn q1_finds_person0() {
        let d = doc();
        assert_eq!(q1(&d, &EvalOptions::default()).unwrap().rows, 1);
    }

    #[test]
    fn q5_counts_expensive_closings() {
        let d = doc();
        let r = q5(&d, &EvalOptions::default()).unwrap();
        assert!(r.rows >= 1);
    }

    #[test]
    fn q6_reports_one_count_per_region() {
        let d = doc();
        assert_eq!(q6(&d, &EvalOptions::default()).unwrap().rows, 6);
    }

    #[test]
    fn q8_row_per_person() {
        let d = doc();
        let cfg = XMarkConfig::tiny(11);
        assert_eq!(q8(&d, &EvalOptions::default()).unwrap().rows, cfg.persons());
    }

    #[test]
    fn q15_and_q16_traverse_the_deep_path() {
        // Use a bigger doc so the 40 % parlist probability definitely
        // produces closed-auction annotations with the nested shape.
        let d = ReadOnlyDoc::parse_str(&generate(&XMarkConfig::scaled(0.004, 2))).unwrap();
        let r15 = q15(&d, &EvalOptions::default()).unwrap();
        assert!(r15.rows > 0, "Q15 path not present in generated data");
        let r16 = q16(&d, &EvalOptions::default()).unwrap();
        assert!(r16.rows > 0 && r16.rows <= r15.rows);
    }

    #[test]
    fn q20_brackets_partition_people() {
        let d = doc();
        assert_eq!(q20(&d, &EvalOptions::default()).unwrap().rows, 4);
    }

    #[test]
    fn unknown_query_number_errors() {
        let d = doc();
        assert!(matches!(
            run_query(&d, 21),
            Err(QueryError::UnknownQuery(21))
        ));
        assert!(matches!(run_query(&d, 0), Err(QueryError::UnknownQuery(0))));
    }

    #[test]
    fn checksums_are_stable() {
        let d = doc();
        for q in 1..=QUERY_COUNT {
            let a = run_query(&d, q).unwrap();
            let b = run_query(&d, q).unwrap();
            assert_eq!(a, b, "Q{q} not deterministic");
        }
    }
}
