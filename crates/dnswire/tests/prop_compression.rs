//! Differential tests of the name codec against the label-vector model.
//!
//! The reference encoder below is the compressor `Name` had when it was a
//! vector of labels: a `HashMap` from each lowercased suffix to the
//! offset of its first occurrence. The codec walks the bytes it already
//! wrote instead; both must emit the same bytes for every message, with
//! suffixes repeated in any ASCII case, names long enough to leave the
//! inline buffer, and padding that pushes names past the last offset a
//! pointer can reach (0x4000).

use doqlab_dnswire::*;
use proptest::prelude::*;
use proptest::strategy::{Just, TestRng};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// A name as a vector of labels, leftmost first.
type Labels = Vec<Vec<u8>>;

const POOL: [&str; 8] = [
    "www",
    "mail",
    "a",
    "cdn-1",
    "ns",
    "d42",
    "hostmaster",
    "x-y",
];
/// Suffixes most names end in, so suffixes repeat within a message.
const ZONES: [&[&str]; 5] = [
    &["com"],
    &["example", "com"],
    &["pop", "doqlab", "test"],
    &["example", "org"],
    &[],
];

/// Pool label `i`; the last two are long, so names reach 254 bytes.
fn pool_label(i: usize) -> Vec<u8> {
    match i {
        i if i < POOL.len() => POOL[i].as_bytes().to_vec(),
        i if i == POOL.len() => vec![b'l'; 63],
        _ => vec![b'm'; 40],
    }
}

fn wire_len(labels: &[Vec<u8>]) -> usize {
    labels.iter().map(|l| 1 + l.len()).sum::<usize>() + 1
}

/// Uppercase the letters whose position bit is set in `mask`.
fn with_case(labels: &[Vec<u8>], mask: u64) -> Labels {
    let mut at = 0;
    labels
        .iter()
        .map(|label| {
            label
                .iter()
                .map(|&b| {
                    at += 1;
                    if mask >> (at % 64) & 1 == 1 {
                        b.to_ascii_uppercase()
                    } else {
                        b
                    }
                })
                .collect()
        })
        .collect()
}

/// Up to five pool labels in front of a zone, in random case, trimmed
/// from the left to the 255-byte limit.
fn arb_labels() -> impl Strategy<Value = Labels> {
    (
        proptest::collection::vec(0..POOL.len() + 2, 0..6),
        0..ZONES.len(),
        any::<u64>(),
    )
        .prop_map(|(prefix, zone, mask)| {
            let mut labels: Labels = prefix.into_iter().map(pool_label).collect();
            labels.extend(ZONES[zone].iter().map(|l| l.as_bytes().to_vec()));
            while wire_len(&labels) > 255 {
                labels.remove(0);
            }
            with_case(&labels, mask)
        })
}

fn name(labels: &[Vec<u8>]) -> Name {
    let text: Vec<&str> = labels
        .iter()
        .map(|l| std::str::from_utf8(l).unwrap())
        .collect();
    Name::parse(&text.join(".")).unwrap()
}

#[derive(Debug, Clone)]
enum RdataSpec {
    A([u8; 4]),
    Ns(Labels),
    Cname(Labels),
    Mx(u16, Labels),
    Soa(Labels, Labels),
    /// Character-strings of 255 bytes each.
    Txt(usize),
    /// Raw bytes under an unassigned type.
    Unknown(usize),
}

#[derive(Debug, Clone)]
struct RecordSpec {
    owner: Labels,
    ttl: u32,
    rdata: RdataSpec,
}

/// A message as the model sees it: a query for `question`, possibly
/// flagged as a response, with records in two sections and the OPT
/// record `Message::query` adds.
#[derive(Debug, Clone)]
struct MessageSpec {
    id: u16,
    response: bool,
    question: Labels,
    answers: Vec<RecordSpec>,
    authorities: Vec<RecordSpec>,
}

/// Records draw their names from the message's 1–12 names.
fn build_record(
    names: &[Labels],
    (kind, a, b, c, size): (u8, usize, usize, usize, u16),
) -> RecordSpec {
    let pick = |i: usize| names[i % names.len()].clone();
    let rdata = match kind % 7 {
        0 => RdataSpec::A([a as u8, b as u8, c as u8, size as u8]),
        1 => RdataSpec::Ns(pick(b)),
        2 => RdataSpec::Cname(pick(b)),
        3 => RdataSpec::Mx(size, pick(b)),
        4 => RdataSpec::Soa(pick(b), pick(c)),
        5 => RdataSpec::Txt(usize::from(size) % 24),
        _ => RdataSpec::Unknown(usize::from(size) % 9000),
    };
    RecordSpec {
        owner: pick(a),
        ttl: size.into(),
        rdata,
    }
}

/// Half the messages lead with padding that ends just short of 0x4000,
/// so the names after it straddle the last offset a pointer can reach.
fn arb_message_spec() -> impl Strategy<Value = MessageSpec> {
    let record = (
        any::<u8>(),
        any::<usize>(),
        any::<usize>(),
        any::<usize>(),
        any::<u16>(),
    );
    (
        (any::<u16>(), any::<bool>(), any::<usize>()),
        proptest::collection::vec(arb_labels(), 1..13),
        proptest::collection::vec(record, 0..9),
        0..9usize,
        prop_oneof![Just(0), 0x3E00..0x4000usize],
    )
        .prop_map(|((id, response, q), names, records, split, lead)| {
            let mut records: Vec<RecordSpec> = records
                .into_iter()
                .map(|r| build_record(&names, r))
                .collect();
            if lead > 0 {
                let owner = names[0].clone();
                let rdata = RdataSpec::Unknown(lead);
                records.insert(
                    0,
                    RecordSpec {
                        owner,
                        ttl: 0,
                        rdata,
                    },
                );
            }
            let authorities = records.split_off(split.min(records.len()));
            MessageSpec {
                id,
                response,
                question: names[q % names.len()].clone(),
                answers: records,
                authorities,
            }
        })
}

impl MessageSpec {
    /// The same message with every name lowercased.
    fn lowercased(&self) -> MessageSpec {
        let lower = |l: &Labels| -> Labels { l.iter().map(|l| l.to_ascii_lowercase()).collect() };
        let record = |r: &RecordSpec| RecordSpec {
            owner: lower(&r.owner),
            ttl: r.ttl,
            rdata: match &r.rdata {
                RdataSpec::Ns(n) => RdataSpec::Ns(lower(n)),
                RdataSpec::Cname(n) => RdataSpec::Cname(lower(n)),
                RdataSpec::Mx(preference, n) => RdataSpec::Mx(*preference, lower(n)),
                RdataSpec::Soa(m, r) => RdataSpec::Soa(lower(m), lower(r)),
                other => other.clone(),
            },
        };
        MessageSpec {
            question: lower(&self.question),
            answers: self.answers.iter().map(record).collect(),
            authorities: self.authorities.iter().map(record).collect(),
            ..self.clone()
        }
    }
}

fn rdata(spec: &RdataSpec) -> (RecordType, RData) {
    match spec {
        RdataSpec::A(a) => (RecordType::A, RData::A(*a)),
        RdataSpec::Ns(n) => (RecordType::Ns, RData::Ns(name(n))),
        RdataSpec::Cname(n) => (RecordType::Cname, RData::Cname(name(n))),
        RdataSpec::Mx(preference, n) => (
            RecordType::Mx,
            RData::Mx {
                preference: *preference,
                exchange: name(n),
            },
        ),
        RdataSpec::Soa(m, r) => (
            RecordType::Soa,
            RData::Soa {
                mname: name(m),
                rname: name(r),
                serial: 1,
                refresh: 2,
                retry: 3,
                expire: 4,
                minimum: 5,
            },
        ),
        RdataSpec::Txt(n) => (RecordType::Txt, RData::Txt(vec![vec![b't'; 255]; *n])),
        RdataSpec::Unknown(n) => (RecordType::Unknown(65280), RData::Unknown(vec![b'u'; *n])),
    }
}

fn message(spec: &MessageSpec) -> Message {
    let records = |specs: &[RecordSpec]| -> Vec<ResourceRecord> {
        specs
            .iter()
            .map(|r| {
                let (rtype, rdata) = rdata(&r.rdata);
                ResourceRecord {
                    name: name(&r.owner),
                    rtype,
                    class: RecordClass::In,
                    ttl: r.ttl,
                    rdata,
                }
            })
            .collect()
    };
    let mut m = Message::query(spec.id, name(&spec.question), RecordType::A);
    m.header.response = spec.response;
    m.answers = records(&spec.answers);
    m.authorities = records(&spec.authorities);
    m
}

/// The reference encoder: the suffix dictionary of lowercased keys.
#[derive(Default)]
struct Reference {
    buf: Vec<u8>,
    name_offsets: HashMap<Vec<u8>, u16>,
    /// Labels written where no pointer can reach them.
    labels_past_limit: usize,
}

impl Reference {
    fn u16(&mut self, v: u16) {
        self.buf.extend(v.to_be_bytes());
    }

    fn name(&mut self, labels: &[Vec<u8>]) {
        for i in 0..labels.len() {
            let mut key = Vec::new();
            for label in &labels[i..] {
                key.push(label.len() as u8);
                key.extend(label.iter().map(u8::to_ascii_lowercase));
            }
            if let Some(&offset) = self.name_offsets.get(&key) {
                self.u16(0xC000 | offset);
                return;
            }
            if self.buf.len() < 0x4000 {
                self.name_offsets
                    .entry(key)
                    .or_insert(self.buf.len() as u16);
            } else {
                self.labels_past_limit += 1;
            }
            self.buf.push(labels[i].len() as u8);
            self.buf.extend(&labels[i]);
        }
        self.buf.push(0);
    }

    fn record(&mut self, r: &RecordSpec) {
        self.name(&r.owner);
        self.u16(rdata(&r.rdata).0.to_u16());
        self.u16(1); // IN
        self.buf.extend(r.ttl.to_be_bytes());
        let len_at = self.buf.len();
        self.u16(0);
        match &r.rdata {
            RdataSpec::A(a) => self.buf.extend(a),
            RdataSpec::Ns(n) | RdataSpec::Cname(n) => self.name(n),
            RdataSpec::Mx(preference, n) => {
                self.u16(*preference);
                self.name(n);
            }
            RdataSpec::Soa(m, r) => {
                self.name(m);
                self.name(r);
                for v in 1..=5u32 {
                    self.buf.extend(v.to_be_bytes());
                }
            }
            RdataSpec::Txt(n) => {
                for _ in 0..*n {
                    self.buf.push(255);
                    self.buf.extend([b't'; 255]);
                }
            }
            RdataSpec::Unknown(n) => self.buf.extend(vec![b'u'; *n]),
        }
        let rdlen = (self.buf.len() - len_at - 2) as u16;
        self.buf[len_at..len_at + 2].copy_from_slice(&rdlen.to_be_bytes());
    }

    fn encode(spec: &MessageSpec) -> Reference {
        let mut w = Reference::default();
        w.u16(spec.id);
        // RD, plus QR on responses.
        w.u16(if spec.response { 0x8100 } else { 0x0100 });
        for count in [1, spec.answers.len(), spec.authorities.len(), 1] {
            w.u16(count as u16);
        }
        w.name(&spec.question);
        w.u16(RecordType::A.to_u16());
        w.u16(1);
        for r in spec.answers.iter().chain(&spec.authorities) {
            w.record(r);
        }
        // OPT: root owner, type 41, UDP size 1232, no flags, no options.
        w.buf.extend([0, 0, 41, 0x04, 0xD0, 0, 0, 0, 0, 0, 0]);
        w
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn compression_matches_the_suffix_dictionary(spec in arb_message_spec()) {
        let msg = message(&spec);
        let wire = msg.encode();
        prop_assert_eq!(&wire, &Reference::encode(&spec).buf);
        prop_assert!(wire.len() <= msg.uncompressed_len());
        // A pointer carries its target's case, so a decoded name may
        // differ in case from the one encoded; the bytes may not.
        let back = Message::decode(&wire).expect("own encoding must decode");
        prop_assert_eq!(back.encode(), wire);
        let lower = message(&spec.lowercased());
        prop_assert_eq!(Message::decode(&lower.encode()).unwrap(), lower);
    }

    #[test]
    fn names_agree_with_the_label_model(
        a in arb_labels(),
        b in arb_labels(),
        relation in 0..3u8,
        mask in any::<u64>(),
    ) {
        // b unrelated to a, a in another case, or a suffix of a.
        let b = match relation {
            0 => b,
            1 => with_case(&a, mask),
            _ => with_case(&a[(mask as usize) % (a.len() + 1)..], mask >> 8),
        };
        let (na, nb) = (name(&a), name(&b));
        let lower = |l: &Labels| -> Labels { l.iter().map(|l| l.to_ascii_lowercase()).collect() };

        let labels: Labels = na.labels().map(<[u8]>::to_vec).collect();
        prop_assert_eq!(&labels, &a);
        prop_assert_eq!(na.label_count(), a.len());
        prop_assert_eq!(na.wire_len(), wire_len(&a));
        prop_assert_eq!(na == nb, a == b);
        prop_assert_eq!(na.cmp(&nb), a.cmp(&b));
        prop_assert_eq!(na.eq_ignore_case(&nb), lower(&a) == lower(&b));
        prop_assert_eq!(
            na.is_subdomain_of(&nb),
            b.len() <= a.len() && lower(&a)[a.len() - b.len()..] == lower(&b)[..]
        );
        let parent = na.parent().map(|p| p.labels().map(<[u8]>::to_vec).collect::<Labels>());
        prop_assert_eq!(parent, (!a.is_empty()).then(|| a[1..].to_vec()));

        let text: Vec<String> = a.iter().map(|l| String::from_utf8(l.clone()).unwrap()).collect();
        let shown = if a.is_empty() { ".".to_string() } else { format!("{}.", text.join(".")) };
        prop_assert_eq!(na.to_string(), shown);

        // Equal names hash equally, and so do the lowercased forms of
        // case-equal ones.
        let hasher = RandomState::new();
        if na == nb {
            prop_assert_eq!(hasher.hash_one(&na), hasher.hash_one(&nb));
        }
        if na.eq_ignore_case(&nb) {
            prop_assert_eq!(na.to_ascii_lowercase(), nb.to_ascii_lowercase());
            prop_assert_eq!(
                hasher.hash_one(na.to_ascii_lowercase()),
                hasher.hash_one(nb.to_ascii_lowercase())
            );
        }
    }
}

/// The generator reaches the two paths the properties are about: labels
/// written past the last offset a pointer can reach, and names that
/// spill out of the inline buffer.
#[test]
fn the_generator_covers_the_pointer_limit_and_the_spill_path() {
    let strategy = arb_message_spec();
    let mut rng = TestRng::new(1);
    let (mut past_limit, mut spills) = (0, 0);
    for _ in 0..512 {
        let spec = strategy.generate(&mut rng);
        if Reference::encode(&spec).labels_past_limit > 0 {
            past_limit += 1;
        }
        let owners = spec
            .answers
            .iter()
            .chain(&spec.authorities)
            .map(|r| &r.owner);
        if std::iter::once(&spec.question)
            .chain(owners)
            .any(|n| wire_len(n) - 1 > name::INLINE_LEN)
        {
            spills += 1;
        }
    }
    assert!(
        past_limit >= 20,
        "{past_limit} messages wrote labels past 0x4000"
    );
    assert!(spills >= 20, "{spills} messages spilled a name");
}
