//! Bluetooth BR (basic rate) ACL packets (Core Vol 2 Part B).
//!
//! Air layout: 72-bit access code (4-bit preamble, 64-bit sync word from the
//! LAP's BCH(64,30) code, 4-bit trailer), 54-bit header (18 bits at rate-1/3
//! repetition: LT_ADDR, TYPE, FLOW, ARQN, SEQN, HEC), then the payload —
//! payload header, user data and CRC-16, whitened with the clock, and for
//! DM types additionally (15,10) FEC-encoded.
//!
//! The A2DP audio app streams DH5/DM5 packets through this module
//! (paper Sec 4.7).

use bluefi_coding::bch::sync_word_bits;
use bluefi_coding::crc::{crc16_bits, crc16_check};
use bluefi_coding::hamming::{decode_r13, decode_r23_fec, encode_r13, encode_r23_fec};
use bluefi_coding::lfsr::br_whiten;
use bluefi_dsp::bits::{bits_to_bytes_lsb, bytes_to_bits_lsb};

/// A Bluetooth device address split the way the baseband uses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtAddress {
    /// Lower address part (24 bits) — selects the access code.
    pub lap: u32,
    /// Upper address part — seeds HEC and CRC.
    pub uap: u8,
    /// Non-significant address part.
    pub nap: u16,
}

impl BtAddress {
    /// An address from raw bytes (as printed, MSB first:
    /// `NAP:NAP:UAP:LAP:LAP:LAP`).
    pub fn from_bytes(b: [u8; 6]) -> BtAddress {
        BtAddress {
            nap: u16::from_be_bytes([b[0], b[1]]),
            uap: b[2],
            lap: u32::from_be_bytes([0, b[3], b[4], b[5]]),
        }
    }
}

/// ACL packet types BlueFi's audio app uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketType {
    /// 1-slot, FEC-protected, ≤17 data bytes.
    Dm1,
    /// 1-slot, unprotected, ≤27 data bytes.
    Dh1,
    /// 3-slot, FEC-protected, ≤121 data bytes.
    Dm3,
    /// 3-slot, unprotected, ≤183 data bytes.
    Dh3,
    /// 5-slot, FEC-protected, ≤224 data bytes.
    Dm5,
    /// 5-slot, unprotected, ≤339 data bytes.
    Dh5,
}

impl PacketType {
    /// 4-bit TYPE code (ACL logical transport).
    pub fn code(self) -> u8 {
        match self {
            PacketType::Dm1 => 3,
            PacketType::Dh1 => 4,
            PacketType::Dm3 => 10,
            PacketType::Dh3 => 11,
            PacketType::Dm5 => 14,
            PacketType::Dh5 => 15,
        }
    }

    /// Inverse of [`PacketType::code`].
    pub fn from_code(code: u8) -> Option<PacketType> {
        match code {
            3 => Some(PacketType::Dm1),
            4 => Some(PacketType::Dh1),
            10 => Some(PacketType::Dm3),
            11 => Some(PacketType::Dh3),
            14 => Some(PacketType::Dm5),
            15 => Some(PacketType::Dh5),
            _ => None,
        }
    }

    /// Time slots occupied (625 µs each).
    pub fn slots(self) -> usize {
        match self {
            PacketType::Dm1 | PacketType::Dh1 => 1,
            PacketType::Dm3 | PacketType::Dh3 => 3,
            PacketType::Dm5 | PacketType::Dh5 => 5,
        }
    }

    /// Whether the payload carries rate-2/3 FEC.
    pub fn fec(self) -> bool {
        matches!(self, PacketType::Dm1 | PacketType::Dm3 | PacketType::Dm5)
    }

    /// Maximum user-data bytes.
    pub fn max_payload(self) -> usize {
        match self {
            PacketType::Dm1 => 17,
            PacketType::Dh1 => 27,
            PacketType::Dm3 => 121,
            PacketType::Dh3 => 183,
            PacketType::Dm5 => 224,
            PacketType::Dh5 => 339,
        }
    }

    /// Payload-header length in bytes (1 for single-slot, 2 for multi-slot).
    pub fn payload_header_len(self) -> usize {
        if self.slots() == 1 {
            1
        } else {
            2
        }
    }
}

/// The 72-bit channel access code for a LAP: alternating preamble, sync
/// word, alternating trailer (both chosen to extend the sync word's edge
/// bits, Vol 2 Part B 6.2/6.4).
pub fn access_code_bits(lap: u32) -> Vec<bool> {
    let sync = sync_word_bits(lap);
    let first = sync[0];
    let last = sync[63];
    // Preamble bit 3 must differ from sync bit 0; trailer bit 0 must differ
    // from sync bit 63.
    let mut out: Vec<bool> = (0..4).map(|i| first ^ (i % 2 == 1)).collect();
    out.extend_from_slice(&sync);
    out.extend((0..4).map(|i| last ^ (i % 2 == 0)));
    out
}

/// A BR packet header (pre-HEC fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrHeader {
    /// Logical transport address (3 bits, 1..=7 for active members).
    pub lt_addr: u8,
    /// Packet type.
    pub ptype: PacketType,
    /// Flow control bit.
    pub flow: bool,
    /// ARQ acknowledgement bit.
    pub arqn: bool,
    /// Sequence number bit.
    pub seqn: bool,
}

impl BrHeader {
    fn field_bits(&self) -> Vec<bool> {
        let mut bits = Vec::with_capacity(10);
        for i in 0..3 {
            bits.push((self.lt_addr >> i) & 1 == 1);
        }
        for i in 0..4 {
            bits.push((self.ptype.code() >> i) & 1 == 1);
        }
        bits.push(self.flow);
        bits.push(self.arqn);
        bits.push(self.seqn);
        bits
    }

    fn from_field_bits(bits: &[bool]) -> Option<BrHeader> {
        if bits.len() != 10 {
            return None;
        }
        let lt_addr = (0..3).fold(0u8, |a, i| a | ((bits[i] as u8) << i));
        let code = (0..4).fold(0u8, |a, i| a | ((bits[3 + i] as u8) << i));
        Some(BrHeader {
            lt_addr,
            ptype: PacketType::from_code(code)?,
            flow: bits[7],
            arqn: bits[8],
            seqn: bits[9],
        })
    }
}

/// Assembles a complete BR packet's air bits.
///
/// * `addr` — the master's address (LAP → access code, UAP → HEC/CRC).
/// * `clk6_1` — clock bits CLK₆…CLK₁ at transmission time (whitening seed);
///   this is why BlueFi must generate packets against the slot they will
///   actually be sent in (paper Sec 4.7/4.8 timeliness discussion).
pub fn br_air_bits(
    addr: BtAddress,
    header: &BrHeader,
    payload: &[u8],
    clk6_1: u8,
) -> Vec<bool> {
    assert!(
        payload.len() <= header.ptype.max_payload(),
        "{:?} carries at most {} bytes, got {}",
        header.ptype,
        header.ptype.max_payload(),
        payload.len()
    );
    let mut out = access_code_bits(addr.lap);

    // Header: 10 field bits + HEC, whitened, then rate-1/3 repetition.
    let fields = header.field_bits();
    let mut hdr = fields.clone();
    hdr.extend(bluefi_coding::crc::hec8_bits(addr.uap, &fields));
    let hdr_whitened = br_whiten(clk6_1, &hdr);
    out.extend(encode_r13(&hdr_whitened));

    // Payload: payload header + data + CRC-16, whitened, FEC if DM.
    let mut body = Vec::new();
    let hlen = header.ptype.payload_header_len();
    if hlen == 1 {
        // LLID=2 (start of L2CAP), FLOW=1, LENGTH (5 bits).
        body.push(0x02u8 | 0x04 | ((payload.len() as u8) << 3));
    } else {
        // LLID=2, FLOW=1, LENGTH (9 bits), 4 undefined.
        let len = payload.len() as u16;
        body.push(0x02 | 0x04 | (((len & 0x1F) as u8) << 3));
        body.push((len >> 5) as u8);
    }
    body.extend_from_slice(payload);
    let mut bits = bytes_to_bits_lsb(&body);
    bits.extend(crc16_bits(addr.uap, &bytes_to_bits_lsb(&body)));
    let whitened = br_whiten(clk6_1, &bits);
    if header.ptype.fec() {
        out.extend(encode_r23_fec(&whitened));
    } else {
        out.extend(whitened);
    }
    out
}

/// Maximum air bits for an n-slot packet at 1 µs/bit — the sizes realized
/// by the largest spec payloads (DH1 = 366, DM3 = 1626 after FEC padding,
/// DM5 = 2871), all leaving ≥ ~250 µs turnaround before the next slot pair.
pub fn max_air_bits(slots: usize) -> usize {
    match slots {
        1 => 366,
        3 => 1626,
        5 => 2871,
        // lint: allow(panic) slot counts come from PacketType, which only produces 1/3/5
        _ => panic!("packets span 1, 3 or 5 slots"),
    }
}

/// Decode outcome for one BR packet, mirroring the FTS4BT sniffer's
/// classification in Figs 9 and 10.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BrDecode {
    /// Header and CRC valid.
    Ok {
        /// Decoded header.
        header: BrHeader,
        /// User payload bytes.
        payload: Vec<u8>,
    },
    /// Header unrecoverable (HEC failure) — "Header Error".
    HeaderError,
    /// Header fine, payload CRC failed — "CRC Error".
    CrcError {
        /// The header that did decode.
        header: BrHeader,
    },
}

/// Decodes the bits following the access code.
pub fn br_decode(bits: &[bool], uap: u8, clk6_1: u8) -> BrDecode {
    if bits.len() < 54 {
        return BrDecode::HeaderError;
    }
    let hdr_whitened = decode_r13(&bits[..54]);
    let hdr = br_whiten(clk6_1, &hdr_whitened);
    let fields = &hdr[..10];
    if !bluefi_coding::crc::hec8_check(uap, fields, &hdr[10..18]) {
        return BrDecode::HeaderError;
    }
    let header = match BrHeader::from_field_bits(fields) {
        Some(h) => h,
        None => return BrDecode::HeaderError,
    };

    let rest = &bits[54..];
    // Undo FEC first (it was applied last on TX).
    let whitened = if header.ptype.fec() {
        let usable = rest.len() - rest.len() % 15;
        let (decoded, _clean) = decode_r23_fec(&rest[..usable]);
        decoded
    } else {
        rest.to_vec()
    };
    let body = br_whiten(clk6_1, &whitened);
    let hlen = header.ptype.payload_header_len();
    if body.len() < hlen * 8 {
        return BrDecode::CrcError { header };
    }
    let hdr_bytes = bits_to_bytes_lsb(&body[..hlen * 8]);
    let data_len = if hlen == 1 {
        (hdr_bytes[0] >> 3) as usize
    } else {
        ((hdr_bytes[0] >> 3) as usize) | ((hdr_bytes[1] as usize) << 5)
    };
    let total_bits = (hlen + data_len) * 8 + 16;
    if data_len > header.ptype.max_payload() || body.len() < total_bits {
        return BrDecode::CrcError { header };
    }
    let payload_bits = &body[..(hlen + data_len) * 8];
    let crc = &body[(hlen + data_len) * 8..total_bits];
    if !crc16_check(uap, payload_bits, crc) {
        return BrDecode::CrcError { header };
    }
    let bytes = bits_to_bytes_lsb(payload_bits);
    BrDecode::Ok { header, payload: bytes[hlen..].to_vec() }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr() -> BtAddress {
        BtAddress { lap: 0x9E8B33, uap: 0x47, nap: 0x1234 }
    }

    fn header(ptype: PacketType) -> BrHeader {
        BrHeader { lt_addr: 1, ptype, flow: true, arqn: false, seqn: true }
    }

    #[test]
    fn access_code_is_72_bits_and_alternates() {
        let ac = access_code_bits(0x9E8B33);
        assert_eq!(ac.len(), 72);
        for w in ac[..5].windows(2) {
            assert_ne!(w[0], w[1], "preamble+first sync bit alternate");
        }
        for w in ac[67..].windows(2) {
            assert_ne!(w[0], w[1], "last sync bit+trailer alternate");
        }
    }

    #[test]
    fn roundtrip_every_packet_type() {
        for ptype in [
            PacketType::Dm1,
            PacketType::Dh1,
            PacketType::Dm3,
            PacketType::Dh3,
            PacketType::Dm5,
            PacketType::Dh5,
        ] {
            let payload: Vec<u8> = (0..ptype.max_payload() as u8).map(|i| i ^ 0x5A).collect();
            let bits = br_air_bits(addr(), &header(ptype), &payload, 0x15);
            assert!(
                bits.len() <= max_air_bits(ptype.slots()),
                "{ptype:?}: {} bits",
                bits.len()
            );
            match br_decode(&bits[72..], 0x47, 0x15) {
                BrDecode::Ok { header: h, payload: p } => {
                    assert_eq!(h, header(ptype), "{ptype:?}");
                    assert_eq!(p, payload, "{ptype:?}");
                }
                other => panic!("{ptype:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn header_corruption_is_header_error() {
        let bits = br_air_bits(addr(), &header(PacketType::Dh1), &[1, 2, 3], 0);
        let mut b = bits[72..].to_vec();
        // Corrupt 2 of 3 repetitions of several header bits so majority
        // voting fails.
        for i in [0usize, 1, 6, 7, 12, 13, 24, 25] {
            b[i] = !b[i];
        }
        assert_eq!(br_decode(&b, 0x47, 0), BrDecode::HeaderError);
    }

    #[test]
    fn payload_corruption_is_crc_error() {
        let bits = br_air_bits(addr(), &header(PacketType::Dh3), &[9u8; 100], 0x2A);
        let mut b = bits[72..].to_vec();
        let n = b.len();
        b[n - 30] = !b[n - 30];
        match br_decode(&b, 0x47, 0x2A) {
            BrDecode::CrcError { header: h } => assert_eq!(h.ptype, PacketType::Dh3),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn dm_fec_corrects_scattered_payload_errors() {
        let payload: Vec<u8> = (0..100).collect();
        let bits = br_air_bits(addr(), &header(PacketType::Dm3), &payload, 0x01);
        let mut b = bits[72..].to_vec();
        // One error per 15-bit FEC block is correctable.
        let payload_start = 54;
        let mut i = payload_start + 3;
        while i < b.len() {
            b[i] = !b[i];
            i += 15;
        }
        match br_decode(&b, 0x47, 0x01) {
            BrDecode::Ok { payload: p, .. } => assert_eq!(p, payload),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn single_header_bit_errors_are_corrected_by_repetition() {
        let bits = br_air_bits(addr(), &header(PacketType::Dh1), &[7u8; 10], 0x3F);
        let mut b = bits[72..].to_vec();
        for i in (0..54).step_by(3) {
            b[i] = !b[i]; // one flip per repetition triplet
        }
        match br_decode(&b, 0x47, 0x3F) {
            BrDecode::Ok { payload, .. } => assert_eq!(payload, vec![7u8; 10]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wrong_clock_whitening_breaks_decode() {
        let bits = br_air_bits(addr(), &header(PacketType::Dh1), &[1, 2, 3], 0x10);
        assert!(!matches!(
            br_decode(&bits[72..], 0x47, 0x11),
            BrDecode::Ok { .. }
        ));
    }

    #[test]
    fn air_time_budget_per_type() {
        // DH5 with maximum payload fills almost exactly 5 slots.
        let p = vec![0u8; PacketType::Dh5.max_payload()];
        let bits = br_air_bits(addr(), &header(PacketType::Dh5), &p, 0);
        assert_eq!(bits.len(), 72 + 54 + (2 + 339 + 2) * 8);
        assert!(bits.len() <= max_air_bits(5));
        assert!(bits.len() > max_air_bits(3), "a full DH5 cannot fit 3 slots");
    }

    #[test]
    fn address_from_bytes() {
        let a = BtAddress::from_bytes([0x00, 0x11, 0x22, 0x9E, 0x8B, 0x33]);
        assert_eq!(a.nap, 0x0011);
        assert_eq!(a.uap, 0x22);
        assert_eq!(a.lap, 0x9E8B33);
    }
}
