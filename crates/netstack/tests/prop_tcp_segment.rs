//! Differential tests of the TCP segment codec against the codec it
//! replaced.
//!
//! The reference below is the segment type `TcpSegment` was when it
//! owned its bytes: options as a `Vec` of an enum in wire order, the
//! payload as a `Vec`. The codec keeps its options inline and borrows
//! its payload; both must encode the same bytes for every segment the
//! inline options can hold, and decode the same fields from any header.
//! Two behaviours are defined where the reference kept more than the
//! inline options can: of repeated options the first occurrence wins
//! (what the socket's lookups took from the reference's list), and a
//! Fast Open cookie longer than RFC 7413's 16 bytes is skipped like an
//! unknown option.

use doqlab_netstack::tcp::{TcpFlags, TcpOptions, TcpSegment, TfoCookie, Timestamps};
use proptest::prelude::*;

mod reference {
    use doqlab_netstack::tcp::TcpFlags;

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum TcpOption {
        Mss(u16),
        SackPermitted,
        Timestamps { value: u32, echo: u32 },
        WindowScale(u8),
        FastOpenCookie(Vec<u8>),
    }

    impl TcpOption {
        fn encoded_len(&self) -> usize {
            match self {
                TcpOption::Mss(_) => 4,
                TcpOption::SackPermitted => 2,
                TcpOption::Timestamps { .. } => 10,
                TcpOption::WindowScale(_) => 3,
                TcpOption::FastOpenCookie(c) => 2 + c.len(),
            }
        }

        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                TcpOption::Mss(v) => {
                    out.extend_from_slice(&[2, 4]);
                    out.extend_from_slice(&v.to_be_bytes());
                }
                TcpOption::SackPermitted => out.extend_from_slice(&[4, 2]),
                TcpOption::Timestamps { value, echo } => {
                    out.extend_from_slice(&[8, 10]);
                    out.extend_from_slice(&value.to_be_bytes());
                    out.extend_from_slice(&echo.to_be_bytes());
                }
                TcpOption::WindowScale(s) => out.extend_from_slice(&[3, 3, *s]),
                TcpOption::FastOpenCookie(c) => {
                    out.push(34);
                    out.push(2 + c.len() as u8);
                    out.extend_from_slice(c);
                }
            }
        }
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct TcpSegment {
        pub src_port: u16,
        pub dst_port: u16,
        pub seq: u32,
        pub ack: u32,
        pub flags: TcpFlags,
        pub window: u16,
        pub options: Vec<TcpOption>,
        pub payload: Vec<u8>,
    }

    const TCP_HEADER_LEN: usize = 20;

    fn to_bits(f: TcpFlags) -> u8 {
        (f.fin as u8)
            | (f.syn as u8) << 1
            | (f.rst as u8) << 2
            | (f.psh as u8) << 3
            | (f.ack as u8) << 4
    }

    pub fn from_bits(b: u8) -> TcpFlags {
        TcpFlags {
            fin: b & 0x01 != 0,
            syn: b & 0x02 != 0,
            rst: b & 0x04 != 0,
            psh: b & 0x08 != 0,
            ack: b & 0x10 != 0,
        }
    }

    impl TcpSegment {
        pub fn encode(&self) -> Vec<u8> {
            let mut out = Vec::new();
            let opt_len: usize = self.options.iter().map(|o| o.encoded_len()).sum();
            let padded = (opt_len + 3) & !3;
            let data_offset_words = (TCP_HEADER_LEN + padded) / 4;
            out.extend_from_slice(&self.src_port.to_be_bytes());
            out.extend_from_slice(&self.dst_port.to_be_bytes());
            out.extend_from_slice(&self.seq.to_be_bytes());
            out.extend_from_slice(&self.ack.to_be_bytes());
            out.push((data_offset_words as u8) << 4);
            out.push(to_bits(self.flags));
            out.extend_from_slice(&self.window.to_be_bytes());
            out.extend_from_slice(&[0, 0]);
            out.extend_from_slice(&[0, 0]);
            for opt in &self.options {
                opt.encode(&mut out);
            }
            out.extend(std::iter::repeat_n(1u8, padded - opt_len));
            out.extend_from_slice(&self.payload);
            out
        }

        pub fn decode(buf: &[u8]) -> Option<TcpSegment> {
            if buf.len() < TCP_HEADER_LEN {
                return None;
            }
            let src_port = u16::from_be_bytes([buf[0], buf[1]]);
            let dst_port = u16::from_be_bytes([buf[2], buf[3]]);
            let seq = u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]);
            let ack = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]);
            let header_len = ((buf[12] >> 4) as usize) * 4;
            if header_len < TCP_HEADER_LEN || header_len > buf.len() {
                return None;
            }
            let flags = from_bits(buf[13]);
            let window = u16::from_be_bytes([buf[14], buf[15]]);
            let mut options = Vec::new();
            let mut i = TCP_HEADER_LEN;
            while i < header_len {
                match buf[i] {
                    0 => break,
                    1 => i += 1,
                    kind => {
                        if i + 1 >= header_len {
                            return None;
                        }
                        let len = buf[i + 1] as usize;
                        if len < 2 || i + len > header_len {
                            return None;
                        }
                        let body = &buf[i + 2..i + len];
                        match kind {
                            2 if body.len() == 2 => {
                                options
                                    .push(TcpOption::Mss(u16::from_be_bytes([body[0], body[1]])));
                            }
                            4 if body.is_empty() => options.push(TcpOption::SackPermitted),
                            8 if body.len() == 8 => options.push(TcpOption::Timestamps {
                                value: u32::from_be_bytes([body[0], body[1], body[2], body[3]]),
                                echo: u32::from_be_bytes([body[4], body[5], body[6], body[7]]),
                            }),
                            3 if body.len() == 1 => options.push(TcpOption::WindowScale(body[0])),
                            34 => options.push(TcpOption::FastOpenCookie(body.to_vec())),
                            _ => {}
                        }
                        i += len;
                    }
                }
            }
            Some(TcpSegment {
                src_port,
                dst_port,
                seq,
                ack,
                flags,
                window,
                options,
                payload: buf[header_len..].to_vec(),
            })
        }
    }
}

use reference::{from_bits as flags, TcpOption};

/// The reference's options as the inline codec keeps them: the first
/// occurrence of each kind, cookies over 16 bytes skipped.
fn first_of_each(options: &[TcpOption]) -> TcpOptions {
    let mut kept = TcpOptions::default();
    for option in options {
        match option {
            TcpOption::Mss(v) => {
                kept.mss.get_or_insert(*v);
            }
            TcpOption::SackPermitted => kept.sack_permitted = true,
            TcpOption::Timestamps { value, echo } => {
                kept.timestamps.get_or_insert(Timestamps {
                    value: *value,
                    echo: *echo,
                });
            }
            TcpOption::WindowScale(s) => {
                kept.window_scale.get_or_insert(*s);
            }
            TcpOption::FastOpenCookie(c) => {
                if kept.fast_open.is_none() {
                    kept.fast_open = TfoCookie::new(c);
                }
            }
        }
    }
    kept
}

/// The inline options as the reference lists them, in encoding order.
fn as_list(options: &TcpOptions) -> Vec<TcpOption> {
    let mut list = Vec::new();
    if let Some(v) = options.mss {
        list.push(TcpOption::Mss(v));
    }
    if options.sack_permitted {
        list.push(TcpOption::SackPermitted);
    }
    if let Some(ts) = options.timestamps {
        list.push(TcpOption::Timestamps {
            value: ts.value,
            echo: ts.echo,
        });
    }
    if let Some(s) = options.window_scale {
        list.push(TcpOption::WindowScale(s));
    }
    if let Some(c) = options.fast_open {
        list.push(TcpOption::FastOpenCookie(c.as_slice().to_vec()));
    }
    list
}

/// An option subset: a bit per kind in `present`, the cookie's length
/// in `cookie_len` (0–16).
fn options(present: u8, bits: u64, cookie_len: usize) -> TcpOptions {
    let bytes = bits.to_be_bytes();
    let cookie: Vec<u8> = (0..cookie_len).map(|i| bytes[i % 8] ^ i as u8).collect();
    TcpOptions {
        mss: (present & 1 != 0).then_some(bits as u16),
        sack_permitted: present & 2 != 0,
        timestamps: (present & 4 != 0).then_some(Timestamps {
            value: (bits >> 16) as u32,
            echo: (bits >> 24) as u32,
        }),
        window_scale: (present & 8 != 0).then_some((bits >> 40) as u8),
        fast_open: if present & 16 != 0 {
            TfoCookie::new(&cookie)
        } else {
            None
        },
    }
}

/// Raw option bytes: known kinds with right and wrong lengths, repeats,
/// NOPs, end-of-list, unknown kinds, cookies of 0–20 bytes and lengths
/// that overrun the header.
fn option_bytes(items: &[(u8, u64, usize)]) -> Vec<u8> {
    let mut out = Vec::new();
    for &(pick, bits, len) in items {
        let b = bits.to_be_bytes();
        let item: Vec<u8> = match pick {
            0 => vec![1],
            1 => vec![2, 4, b[0], b[1]],
            2 => vec![2, 3, b[0]],
            3 => vec![4, 2],
            4 => [&[8, 10][..], &b].concat(),
            5 => vec![3, 3, b[2]],
            6 => {
                let cookie: Vec<u8> = (0..len).map(|i| b[i % 8]).collect();
                [&[34, 2 + len as u8][..], &cookie].concat()
            }
            7 => [&[b[3] % 200 + 40, 2 + (len % 5) as u8][..], &b[..len % 5]].concat(),
            8 => vec![0],
            _ => vec![b[4] | 2, 39],
        };
        if out.len() + item.len() > 40 {
            break;
        }
        out.extend_from_slice(&item);
    }
    out
}

/// `header` (which has no options) with `options` in its header,
/// padded with end-of-list bytes to a 4-byte boundary.
fn raw_segment(header: &reference::TcpSegment, options: &[u8]) -> Vec<u8> {
    let mut wire = header.encode();
    let payload = wire.split_off(20);
    wire.extend_from_slice(options);
    wire.resize((wire.len() + 3) & !3, 0);
    wire[12] = ((wire.len() / 4) as u8) << 4;
    wire.extend_from_slice(&payload);
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn segments_encode_and_decode_like_the_reference(
        ports in (any::<u16>(), any::<u16>()),
        seq_ack in (any::<u32>(), any::<u32>()),
        flag_bits in 0u8..32,
        window in any::<u16>(),
        option_set in (0u8..32, any::<u64>(), 0usize..17),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let (present, bits, cookie_len) = option_set;
        let seg = TcpSegment {
            src_port: ports.0,
            dst_port: ports.1,
            seq: seq_ack.0,
            ack: seq_ack.1,
            flags: flags(flag_bits),
            window,
            options: options(present, bits, cookie_len),
            payload: &payload,
        };
        let old = reference::TcpSegment {
            src_port: seg.src_port,
            dst_port: seg.dst_port,
            seq: seg.seq,
            ack: seg.ack,
            flags: seg.flags,
            window: seg.window,
            options: as_list(&seg.options),
            payload: payload.clone(),
        };
        let wire = seg.encode();
        prop_assert_eq!(&wire, &old.encode());
        prop_assert_eq!(wire.len(), seg.header_len() + payload.len());
        prop_assert_eq!(TcpSegment::decode(&wire), Some(seg));
        prop_assert_eq!(reference::TcpSegment::decode(&wire), Some(old));
    }

    #[test]
    fn any_option_bytes_decode_like_the_reference(
        header in (any::<u32>(), any::<u32>(), 0u8..32, any::<u16>()),
        items in proptest::collection::vec((0u8..10, any::<u64>(), 0usize..21), 0..12),
        payload in proptest::collection::vec(any::<u8>(), 0..40),
    ) {
        let (seq, ack, flag_bits, window) = header;
        let bare = reference::TcpSegment {
            src_port: 443,
            dst_port: 40_000,
            seq,
            ack,
            flags: flags(flag_bits),
            window,
            options: Vec::new(),
            payload,
        };
        let wire = raw_segment(&bare, &option_bytes(&items));
        let new = TcpSegment::decode(&wire);
        match reference::TcpSegment::decode(&wire) {
            None => prop_assert_eq!(new, None),
            Some(old) => {
                let Some(new) = new else {
                    return Err(format!("the reference decoded {old:?}, the codec did not"));
                };
                prop_assert_eq!(
                    (new.src_port, new.dst_port, new.seq, new.ack, new.flags, new.window),
                    (old.src_port, old.dst_port, old.seq, old.ack, old.flags, old.window)
                );
                prop_assert_eq!(new.payload, &old.payload[..]);
                prop_assert_eq!(new.options, first_of_each(&old.options));
            }
        }
    }
}

fn bare() -> reference::TcpSegment {
    reference::TcpSegment {
        src_port: 1,
        dst_port: 2,
        seq: 3,
        ack: 4,
        flags: TcpFlags::SYN,
        window: 5,
        options: Vec::new(),
        payload: b"data".to_vec(),
    }
}

#[test]
fn of_repeated_options_the_first_wins() {
    let options = [
        &[2, 4, 0x05, 0xB4][..], // MSS 1460
        &[3, 3, 7],
        &[2, 4, 0x02, 0x00], // MSS 512
        &[3, 3, 2, 1],
    ]
    .concat();
    let wire = raw_segment(&bare(), &options);
    let seg = TcpSegment::decode(&wire).unwrap();
    assert_eq!(
        (seg.options.mss, seg.options.window_scale),
        (Some(1460), Some(7))
    );
    // The reference kept both; the socket looked up the first.
    let old = reference::TcpSegment::decode(&wire).unwrap();
    assert_eq!(old.options.len(), 4);
    assert_eq!(seg.options, first_of_each(&old.options));
}

#[test]
fn a_cookie_over_sixteen_bytes_is_skipped_like_an_unknown_option() {
    let long = [&[34, 19][..], &[0xAB; 17]].concat();
    let wire = raw_segment(&bare(), &long);
    let seg = TcpSegment::decode(&wire).unwrap();
    assert_eq!(seg.options, TcpOptions::default());
    assert_eq!(seg.payload, b"data");
    // A valid cookie after it is the first one kept.
    let both = [&long[..], &[34, 10], &[0xC0; 8], &[1]].concat();
    let wire = raw_segment(&bare(), &both);
    let seg = TcpSegment::decode(&wire).unwrap();
    assert_eq!(seg.options.fast_open.unwrap().as_slice(), &[0xC0; 8]);
    let old = reference::TcpSegment::decode(&wire).unwrap();
    assert_eq!(
        old.options,
        [
            TcpOption::FastOpenCookie(vec![0xAB; 17]),
            TcpOption::FastOpenCookie(vec![0xC0; 8]),
        ]
    );
}
