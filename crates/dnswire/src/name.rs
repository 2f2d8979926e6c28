//! Domain names: parsing, formatting, and wire encoding with
//! compression.
//!
//! A [`Name`] keeps its uncompressed wire form — one length byte per
//! label followed by the label bytes in their original case, without the
//! terminating root byte — inline in a fixed [`INLINE_LEN`]-byte buffer.
//! A longer legal name (up to 254 bytes) spills to one boxed slice, so
//! parsing, decoding, cloning and taking the parent of an ordinary name
//! never allocate. [`Name::eq_ignore_case`] and compression are
//! case-insensitive per RFC 1035 §2.3.3. Encoding writes compression
//! pointers to earlier occurrences of any suffix (matched by
//! [`WireWriter`] against the bytes it already wrote); decoding follows
//! pointers with strict backwards-only and loop-count protection.

use crate::wire::{WireError, WireReader, WireWriter};
use std::cmp::Ordering;
use std::hash::{Hash, Hasher};

/// Maximum length of a single label.
pub const MAX_LABEL_LEN: usize = 63;
/// Maximum total wire length of a name (including length bytes and the
/// root label).
pub const MAX_NAME_LEN: usize = 255;
/// Wire bytes (root byte excluded) a [`Name`] holds without allocating.
/// It keeps a `Name` at 48 bytes; every name the campaigns query but
/// one fits. Larger buffers cost resident memory wherever names are
/// stored in bulk (record sets, caches, interners).
pub const INLINE_LEN: usize = 46;

/// A fully-qualified domain name, e.g. `google.com.`
///
/// Equality, hashing and ordering are exact (case-sensitive); use
/// [`eq_ignore_case`](Name::eq_ignore_case) or compare
/// [`to_ascii_lowercase`](Name::to_ascii_lowercase) forms for DNS
/// semantics. Names order label by label, leftmost first.
#[derive(Clone)]
pub struct Name(Repr);

/// A name of at most [`INLINE_LEN`] wire bytes is always `Inline`, so
/// cloning it never allocates.
#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; INLINE_LEN] },
    Spilled(Box<[u8]>),
}

impl Name {
    /// The root name (`.`).
    pub fn root() -> Self {
        Name(Repr::Inline {
            len: 0,
            buf: [0; INLINE_LEN],
        })
    }

    /// Wrap a well-formed uncompressed wire form without the root byte.
    fn from_wire(wire: &[u8]) -> Self {
        debug_assert!(wire.len() < MAX_NAME_LEN);
        if wire.len() <= INLINE_LEN {
            let mut buf = [0; INLINE_LEN];
            buf[..wire.len()].copy_from_slice(wire);
            Name(Repr::Inline {
                len: wire.len() as u8,
                buf,
            })
        } else {
            Name(Repr::Spilled(wire.into()))
        }
    }

    /// Build a name by running `fill` over the inline buffer and, only if
    /// the name turns out longer, again over one that holds any legal
    /// name. `fill` writes the labels that fit and returns the whole
    /// name's length, so ordinary names never touch the larger buffer.
    fn build(
        mut fill: impl FnMut(&mut [u8]) -> Result<usize, WireError>,
    ) -> Result<Self, WireError> {
        let mut buf = [0; INLINE_LEN];
        let len = fill(&mut buf)?;
        if len <= INLINE_LEN {
            return Ok(Name(Repr::Inline {
                len: len as u8,
                buf,
            }));
        }
        let mut long = [0; MAX_NAME_LEN - 1];
        fill(&mut long)?;
        Ok(Name(Repr::Spilled(long[..len].into())))
    }

    /// The uncompressed wire form without the root byte.
    fn wire(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, buf } => &buf[..*len as usize],
            Repr::Spilled(wire) => wire,
        }
    }

    /// Parse from presentation format (`"www.google.com"`, trailing dot
    /// optional). Empty labels are rejected except for the pure root
    /// `"."` or `""`.
    pub fn parse(s: &str) -> Result<Self, WireError> {
        let s = s.strip_suffix('.').unwrap_or(s);
        if s.is_empty() {
            return Ok(Name::root());
        }
        Name::build(|out| {
            let mut len = 0;
            for part in s.split('.') {
                if part.is_empty() {
                    return Err(WireError::Invalid("empty label"));
                }
                if part.len() > MAX_LABEL_LEN {
                    return Err(WireError::NameTooLong);
                }
                // Past the length limit, keep checking the syntax: a
                // too-long name with an empty label is reported as the
                // empty label.
                len = put_label(out, len, part.as_bytes());
            }
            // The root byte follows.
            if len + 1 > MAX_NAME_LEN {
                return Err(WireError::NameTooLong);
            }
            Ok(len)
        })
    }

    /// The labels, leftmost first.
    pub fn labels(&self) -> impl Iterator<Item = &[u8]> + '_ {
        let mut rest = self.wire();
        std::iter::from_fn(move || {
            let (&len, tail) = rest.split_first()?;
            let (label, tail) = tail.split_at(len as usize);
            rest = tail;
            Some(label)
        })
    }

    pub fn is_root(&self) -> bool {
        self.wire().is_empty()
    }

    pub fn label_count(&self) -> usize {
        self.labels().count()
    }

    /// Uncompressed wire length: one length byte per label + label bytes
    /// + the terminating root byte.
    pub fn wire_len(&self) -> usize {
        self.wire().len() + 1
    }

    /// Case-insensitive equality per RFC 1035. Length bytes are below
    /// `b'A'`, so comparing whole wire forms compares label by label.
    pub fn eq_ignore_case(&self, other: &Name) -> bool {
        self.wire().eq_ignore_ascii_case(other.wire())
    }

    /// This name with its ASCII letters lowercased. Two names are
    /// [`eq_ignore_case`](Name::eq_ignore_case)-equal iff their
    /// lowercased forms are equal, so this is the canonical
    /// case-insensitive map key for a name.
    pub fn to_ascii_lowercase(&self) -> Name {
        let mut lower = self.clone();
        match &mut lower.0 {
            Repr::Inline { len, buf } => buf[..*len as usize].make_ascii_lowercase(),
            Repr::Spilled(wire) => wire.make_ascii_lowercase(),
        }
        lower
    }

    /// The name minus its first label (`www.google.com` -> `google.com`).
    pub fn parent(&self) -> Option<Name> {
        let wire = self.wire();
        let &first = wire.first()?;
        Some(Name::from_wire(&wire[1 + first as usize..]))
    }

    /// True if `self` equals `zone` or is beneath it (case-insensitive).
    pub fn is_subdomain_of(&self, zone: &Name) -> bool {
        let (wire, zone) = (self.wire(), zone.wire());
        // Step label by label to the suffix as long as the zone, if any.
        let mut at = 0;
        while wire.len() - at > zone.len() {
            at += 1 + wire[at] as usize;
        }
        wire.len() - at == zone.len() && wire[at..].eq_ignore_ascii_case(zone)
    }

    /// Encode with compression: at each label boundary, emit a pointer
    /// if this suffix was written before; otherwise write the label and
    /// remember where the suffix starts.
    pub fn encode(&self, w: &mut WireWriter) {
        w.put_compressed_name(self.wire());
    }

    /// Encode without compression (used inside RDATA types where
    /// compression is forbidden, e.g. SVCB targets per RFC 9460).
    pub fn encode_uncompressed(&self, w: &mut WireWriter) {
        w.put_slice(self.wire());
        w.put_u8(0);
    }

    /// Decode a (possibly compressed) name.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let start = r.pos();
        Name::build(|out| {
            r.seek(start)?;
            let mut len = 0;
            // After following the first pointer, the reader must be
            // restored to the position just past the pointer.
            let mut resume: Option<usize> = None;
            // Pointers must strictly decrease to rule out loops.
            let mut last_pointer = usize::MAX;
            loop {
                match r.get_u8()? {
                    0 => break,
                    l if l & 0xC0 == 0xC0 => {
                        let lo = r.get_u8()? as usize;
                        let target = (((l & 0x3F) as usize) << 8) | lo;
                        if target >= last_pointer || target >= r.pos() {
                            return Err(WireError::BadPointer);
                        }
                        if resume.is_none() {
                            resume = Some(r.pos());
                        }
                        last_pointer = target;
                        r.seek(target)?;
                    }
                    l if l & 0xC0 != 0 => return Err(WireError::BadLabelType),
                    l => {
                        let label = r.get_slice(l as usize)?;
                        // The length byte, the label, and the root byte.
                        if len + 1 + label.len() + 1 > MAX_NAME_LEN {
                            return Err(WireError::NameTooLong);
                        }
                        len = put_label(out, len, label);
                    }
                }
            }
            if let Some(pos) = resume {
                r.seek(pos)?;
            }
            Ok(len)
        })
    }
}

/// Write `label`, with its length byte, at `at` in `out` if it fits,
/// and return where the next label starts either way. Once a label
/// does not fit, no later one does, so `out` holds a whole prefix.
fn put_label(out: &mut [u8], at: usize, label: &[u8]) -> usize {
    let end = at + 1 + label.len();
    if let Some(slot) = out.get_mut(at..end) {
        slot[0] = label.len() as u8;
        slot[1..].copy_from_slice(label);
    }
    end
}

impl PartialEq for Name {
    fn eq(&self, other: &Name) -> bool {
        self.wire() == other.wire()
    }
}

impl Eq for Name {}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.wire().hash(state);
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Name) -> Ordering {
        self.labels().cmp(other.labels())
    }
}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Name) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Name({self})")
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_root() {
            return f.write_str(".");
        }
        for label in self.labels() {
            for &b in label {
                if b.is_ascii_graphic() && b != b'.' && b != b'\\' {
                    write!(f, "{}", b as char)?;
                } else {
                    write!(f, "\\{b:03}")?;
                }
            }
            f.write_str(".")?;
        }
        Ok(())
    }
}

impl std::str::FromStr for Name {
    type Err = WireError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Name::parse(s)
    }
}

/// A copy-cheap handle to a name interned in a [`NameInterner`].
///
/// Ids are only meaningful against the interner that issued them; they
/// are dense (`0..interner.len()`), assigned in first-intern order, and
/// case-insensitive — `WWW.Example.COM` and `www.example.com` intern to
/// the same id. Hot paths (workload tables, cache keys, in-flight
/// coalescing) compare and hash the 4-byte id instead of a whole name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NameId(u32);

impl NameId {
    /// The dense index this id maps to (`0..interner.len()`), usable as
    /// a direct index into caller-side side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A case-insensitive name interner: deduplicates [`Name`]s and issues
/// dense [`NameId`] handles for allocation-free comparison and hashing.
///
/// The canonical spelling stored is the **first** one interned; later
/// interns of case-variants return the same id without replacing it
/// (matching how DNS caches treat 0x20 case randomisation).
#[derive(Debug, Clone, Default)]
pub struct NameInterner {
    names: Vec<Name>,
    /// Lowercased name -> index into `names`.
    ids: std::collections::HashMap<Name, u32>,
}

impl NameInterner {
    pub fn new() -> Self {
        NameInterner::default()
    }

    /// Intern `name`, returning its id — existing if a case-equal name
    /// was interned before, freshly assigned otherwise.
    pub fn intern(&mut self, name: &Name) -> NameId {
        let next = self.names.len() as u32;
        let id = *self
            .ids
            .entry(name.to_ascii_lowercase())
            .or_insert_with(|| {
                self.names.push(name.clone());
                next
            });
        NameId(id)
    }

    /// The id of a previously interned name, without interning.
    pub fn get(&self, name: &Name) -> Option<NameId> {
        self.ids
            .get(&name.to_ascii_lowercase())
            .map(|&id| NameId(id))
    }

    /// The canonical (first-interned) spelling behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was issued by a different interner and is out of
    /// range here.
    pub fn resolve(&self, id: NameId) -> &Name {
        &self.names[id.0 as usize]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encode_one(name: &Name) -> Vec<u8> {
        let mut w = WireWriter::new();
        name.encode(&mut w);
        w.finish()
    }

    #[test]
    fn a_name_is_48_bytes() {
        assert_eq!(std::mem::size_of::<Name>(), 48);
    }

    #[test]
    fn interner_is_case_insensitive_and_dense() {
        let mut it = NameInterner::new();
        let a = it.intern(&Name::parse("www.Example.COM").unwrap());
        let b = it.intern(&Name::parse("www.example.com").unwrap());
        let c = it.intern(&Name::parse("mail.example.com").unwrap());
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(it.len(), 2);
        assert_eq!(a.index(), 0);
        assert_eq!(c.index(), 1);
        // Canonical spelling is the first-interned one.
        assert_eq!(it.resolve(a).to_string(), "www.Example.COM.");
        assert_eq!(it.get(&Name::parse("WWW.EXAMPLE.COM").unwrap()), Some(a));
        assert_eq!(it.get(&Name::parse("other.example").unwrap()), None);
    }

    #[test]
    fn interner_distinguishes_label_boundaries() {
        // "ab.c" and "a.bc" must not collide: the length bytes in the
        // wire form keep boundaries distinct.
        let mut it = NameInterner::new();
        let a = it.intern(&Name::parse("ab.c").unwrap());
        let b = it.intern(&Name::parse("a.bc").unwrap());
        assert_ne!(a, b);
        // Root interns fine (empty wire form).
        let r = it.intern(&Name::root());
        assert_eq!(it.resolve(r), &Name::root());
    }

    #[test]
    fn lowercase_form_matches_case_equality() {
        let a = Name::parse("GoOgle.Com").unwrap();
        let b = Name::parse("google.com").unwrap();
        assert_eq!(a.to_ascii_lowercase(), b);
        assert_eq!(a.to_ascii_lowercase().wire(), b"\x06google\x03com");
        // A spilled name lowercases the same way.
        let long = Name::parse(&[&"x".repeat(63)[..]; 3].join(".")).unwrap();
        let upper = Name::parse(&long.to_string().to_uppercase()).unwrap();
        assert_eq!(upper.to_ascii_lowercase(), long);
    }

    #[test]
    fn parse_and_display() {
        let n = Name::parse("www.Google.com").unwrap();
        assert_eq!(n.label_count(), 3);
        assert_eq!(n.to_string(), "www.Google.com.");
        assert_eq!(
            Name::parse("google.com.").unwrap().to_string(),
            "google.com."
        );
        assert_eq!(Name::root().to_string(), ".");
        assert_eq!(Name::parse("").unwrap(), Name::root());
        assert_eq!(Name::parse(".").unwrap(), Name::root());
    }

    #[test]
    fn parse_rejects_bad_names() {
        assert!(Name::parse("a..b").is_err());
        assert!(Name::parse(&"x".repeat(64)).is_err());
        // 255-byte total limit: four 63-byte labels = 4*64+1 = 257.
        let long = [&"x".repeat(63)[..]; 4].join(".");
        assert_eq!(Name::parse(&long), Err(WireError::NameTooLong));
        // An empty label is reported even past the length limit.
        assert_eq!(
            Name::parse(&format!("{long}..x")),
            Err(WireError::Invalid("empty label"))
        );
    }

    #[test]
    fn longest_legal_name_spills_and_roundtrips() {
        // Three 63-byte labels and one 61-byte label: 254 wire bytes
        // plus the root byte.
        let s = format!("{}.{}", vec!["x".repeat(63); 3].join("."), "y".repeat(61));
        let n = Name::parse(&s).unwrap();
        assert_eq!(n.wire_len(), MAX_NAME_LEN);
        assert!(matches!(n.0, Repr::Spilled(_)));
        let buf = encode_one(&n);
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), n);
        assert!(Name::parse(&format!("{s}y")).is_err());
    }

    #[test]
    fn inline_and_spilled_names_compare_by_content() {
        let fits = Name::parse(&"a".repeat(INLINE_LEN - 1)).unwrap();
        assert!(matches!(fits.0, Repr::Inline { .. }));
        let spills = Name::parse(&format!("b.{}", "a".repeat(INLINE_LEN - 1))).unwrap();
        assert!(matches!(spills.0, Repr::Spilled(_)));
        // The parent of a spilled name that fits comes back inline, and
        // equal to the same name parsed directly.
        let parent = spills.parent().unwrap();
        assert!(matches!(parent.0, Repr::Inline { .. }));
        assert_eq!(parent, fits);
        assert_eq!(spills.clone(), spills);
    }

    #[test]
    fn simple_encode() {
        let n = Name::parse("google.com").unwrap();
        assert_eq!(encode_one(&n), b"\x06google\x03com\x00".to_vec());
        assert_eq!(n.wire_len(), 12);
    }

    #[test]
    fn labels_iterate_leftmost_first() {
        let n = Name::parse("www.Google.com").unwrap();
        let labels: Vec<&[u8]> = n.labels().collect();
        assert_eq!(labels, [&b"www"[..], b"Google", b"com"]);
        assert_eq!(Name::root().labels().count(), 0);
    }

    #[test]
    fn ordering_is_label_by_label() {
        // Label-wise, "ab" < "b"; the wire forms would order the other
        // way round, by their length bytes.
        let (ab, b) = (Name::parse("ab").unwrap(), Name::parse("b").unwrap());
        assert!(ab < b);
        assert!(Name::root() < ab);
        assert!(Name::parse("a").unwrap() < Name::parse("a.b").unwrap());
    }

    #[test]
    fn roundtrip_uncompressed() {
        for s in ["google.com", "a.b.c.d.e.example", "x.y"] {
            let n = Name::parse(s).unwrap();
            let buf = encode_one(&n);
            let mut r = WireReader::new(&buf);
            let m = Name::decode(&mut r).unwrap();
            assert_eq!(n, m);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn compression_pointer_emitted_and_decoded() {
        let mut w = WireWriter::new();
        let a = Name::parse("www.google.com").unwrap();
        let b = Name::parse("mail.google.com").unwrap();
        a.encode(&mut w);
        let len_after_first = w.len();
        b.encode(&mut w);
        let buf = w.finish();
        // Second name should use a pointer to "google.com" (offset 4).
        assert_eq!(&buf[len_after_first..], b"\x04mail\xC0\x04");
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
        assert_eq!(Name::decode(&mut r).unwrap(), b);
        assert!(r.is_at_end());
    }

    #[test]
    fn whole_name_pointer() {
        let mut w = WireWriter::new();
        let a = Name::parse("google.com").unwrap();
        a.encode(&mut w);
        a.encode(&mut w);
        let buf = w.finish();
        assert_eq!(&buf[12..], b"\xC0\x00");
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
        assert_eq!(Name::decode(&mut r).unwrap(), a);
    }

    #[test]
    fn compression_is_case_insensitive() {
        let mut w = WireWriter::new();
        Name::parse("GOOGLE.COM").unwrap().encode(&mut w);
        let before = w.len();
        Name::parse("google.com").unwrap().encode(&mut w);
        assert_eq!(w.len() - before, 2, "expected a bare pointer");
    }

    #[test]
    fn compression_follows_earlier_pointers() {
        // "mail.google.com" is written as "mail" + pointer; a third name
        // matching all of it must point at "mail", walking through the
        // pointer to compare the "google.com" behind it.
        let mut w = WireWriter::new();
        Name::parse("www.google.com").unwrap().encode(&mut w);
        Name::parse("mail.google.com").unwrap().encode(&mut w);
        let mail_at = 16;
        Name::parse("MAIL.Google.com").unwrap().encode(&mut w);
        let buf = w.finish();
        assert_eq!(&buf[mail_at..], b"\x04mail\xC0\x04\xC0\x10");
    }

    #[test]
    fn pointer_loop_rejected() {
        // A name at offset 0 that points to itself.
        let buf = [0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::BadPointer));
    }

    #[test]
    fn forward_pointer_rejected() {
        let buf = [0xC0, 0x05, 0, 0, 0, 0x01, b'a', 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::BadPointer));
    }

    #[test]
    fn mutual_pointer_loop_rejected() {
        // Two pointers pointing at each other: 0 -> 2, 2 -> 0.
        let buf = [0xC0, 0x02, 0xC0, 0x00];
        let mut r = WireReader::new(&buf);
        r.seek(2).unwrap();
        assert_eq!(Name::decode(&mut r), Err(WireError::BadPointer));
    }

    #[test]
    fn reserved_label_types_rejected() {
        let buf = [0x40, 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::BadLabelType));
        let buf = [0x80, 0x00];
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::BadLabelType));
    }

    #[test]
    fn overlong_decoded_name_rejected() {
        // Four 63-byte labels: 256 bytes before the root byte.
        let mut buf = Vec::new();
        for _ in 0..4 {
            buf.push(63);
            buf.extend([b'x'; 63]);
        }
        buf.push(0);
        let mut r = WireReader::new(&buf);
        assert_eq!(Name::decode(&mut r), Err(WireError::NameTooLong));
    }

    #[test]
    fn truncated_name_rejected() {
        let mut r = WireReader::new(b"\x06goog");
        assert_eq!(Name::decode(&mut r), Err(WireError::Truncated));
        let mut r = WireReader::new(b"\x03com");
        assert_eq!(Name::decode(&mut r), Err(WireError::Truncated));
    }

    #[test]
    fn eq_ignore_case_and_subdomain() {
        let a = Name::parse("WWW.Google.Com").unwrap();
        let b = Name::parse("www.google.com").unwrap();
        let zone = Name::parse("google.com").unwrap();
        assert!(a.eq_ignore_case(&b));
        assert_ne!(a, b); // exact equality is case-sensitive
        assert!(a.is_subdomain_of(&zone));
        assert!(zone.is_subdomain_of(&zone));
        assert!(!zone.is_subdomain_of(&a));
        assert!(a.is_subdomain_of(&Name::root()));
        // A suffix that is not on a label boundary is no zone.
        assert!(!a.is_subdomain_of(&Name::parse("oogle.com").unwrap()));
    }

    #[test]
    fn parent_chain() {
        let n = Name::parse("a.b.c").unwrap();
        let p = n.parent().unwrap();
        assert_eq!(p.to_string(), "b.c.");
        assert_eq!(Name::root().parent(), None);
    }

    #[test]
    fn display_escapes_non_printable() {
        let n = Name::from_wire(&[2, 0x07, b'.']);
        assert_eq!(n.to_string(), "\\007\\046.");
    }
}
