//! Seeded workload inputs. Everything the synthesizer receives is generated
//! here from `--seed` through `core::rng::StdRng`, so one seed gives the same
//! inputs on every host and every commit.

use bluefi_apps::audio::{ranked_channels, AudioConfig};
use bluefi_bt::ble::{adv_air_bits, AdvChannel, AdvPdu, AdvPduType};
use bluefi_bt::br::{br_air_bits, BrHeader, PacketType};
use bluefi_core::rng::{Rng, SeedableRng, StdRng};
use bluefi_wifi::channels::{
    bt_channel_freq_hz, distance_to_pilot_or_null, plan_channel, subcarrier_in_channel,
    ChannelPlan, MAX_SNAP_SUBCARRIERS,
};
use bluefi_wifi::chip::SeedPolicy;
use std::collections::VecDeque;

/// How a receiver finds the packet in a loopback capture.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sync {
    /// The BLE advertising access address.
    Ble,
    /// The BR channel access code of this LAP.
    Br {
        /// Lower address part selecting the access code.
        lap: u32,
    },
}

/// One synthesis request.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Bluetooth air bits.
    pub bits: Vec<bool>,
    /// Frequency plan the packet is synthesized against.
    pub plan: ChannelPlan,
    /// Scrambler seed of the WiFi chip.
    pub seed: u8,
    /// Bluetooth payload carried: advertising PDU payload (AdvA + AdvData)
    /// or BR user data, in bytes.
    pub payload_bytes: usize,
    /// Receiver synchronization pattern for the loopback check.
    pub sync: Sync,
}

/// The plan of a BLE advertising channel (38 → 2426 MHz lands on an integer
/// transmit subcarrier, 39 → 2480 MHz on the fractional subcarrier 25.6).
fn adv_plan(channel: u8) -> ChannelPlan {
    let freq = AdvChannel::new(channel)
        .expect("an advertising channel")
        .freq_hz();
    plan_channel(freq).expect("advertising channels 38 and 39 are plannable")
}

fn random_bytes(rng: &mut StdRng, n: usize) -> Vec<u8> {
    (0..n).map(|_| rng.gen::<u8>()).collect()
}

/// `ble_cold`: `ADV_NONCONN_IND` events with a random AdvA and 0–31 bytes of
/// AdvData, each sent on channel 38 and then channel 39, with the scrambler
/// seed incrementing per packet as a stock AR9331 sets it. The low
/// three AdvA bytes carry the event index, so no payload ever repeats.
pub struct BleCold {
    rng: StdRng,
    seeds: SeedPolicy,
    event: u32,
    queued: VecDeque<Packet>,
}

impl BleCold {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> BleCold {
        let mut rng = StdRng::seed_from_u64(seed);
        let next = rng.gen_range(1u8..128);
        BleCold {
            rng,
            seeds: SeedPolicy::Incrementing { next },
            event: 0,
            queued: VecDeque::new(),
        }
    }

    /// One advertising event (channel 38, then 39). `data_len` fixes the
    /// AdvData length; `None` draws it uniformly from 0..=31.
    pub fn event(&mut self, data_len: Option<usize>) -> [Packet; 2] {
        let len = data_len.unwrap_or_else(|| self.rng.gen_range(0usize..32));
        let mut adv_address = [0u8; 6];
        adv_address[..3].copy_from_slice(&self.event.to_le_bytes()[..3]);
        for b in &mut adv_address[3..] {
            *b = self.rng.gen();
        }
        self.event = self.event.wrapping_add(1);
        let pdu = AdvPdu {
            pdu_type: AdvPduType::AdvNonconnInd,
            adv_address,
            adv_data: random_bytes(&mut self.rng, len),
            tx_add: true,
        };
        [38u8, 39].map(|ch| Packet {
            bits: adv_air_bits(&pdu, ch),
            plan: adv_plan(ch),
            seed: self.seeds.take_seed(),
            payload_bytes: 6 + len,
            sync: Sync::Ble,
        })
    }
}

impl Iterator for BleCold {
    type Item = Packet;
    fn next(&mut self) -> Option<Packet> {
        if self.queued.is_empty() {
            let pair = self.event(None);
            self.queued.extend(pair);
        }
        self.queued.pop_front()
    }
}

/// `audio_dm5`: full DM5 packets (224-byte payload, 2871 air bits) on the
/// three best channels of the A2DP streamer's WiFi channel, each with a
/// random payload, clock and channel, at the streamer's constant seed.
pub struct AudioDm5 {
    rng: StdRng,
    cfg: AudioConfig,
    plans: Vec<ChannelPlan>,
    k: u64,
}

/// Scrambler seed of the A2DP streamer (an RTL8811AU-style constant).
const AUDIO_SEED: u8 = 71;

impl AudioDm5 {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> AudioDm5 {
        let cfg = AudioConfig::default();
        // Planned as `A2dpStreamer::schedule` plans them: the true center,
        // snapped to an integer transmit subcarrier within the carrier
        // tolerance.
        let plans = ranked_channels(cfg.wifi_channel)
            .into_iter()
            .take(cfg.n_audio_channels)
            .map(|ch| {
                let sc = subcarrier_in_channel(bt_channel_freq_hz(ch), cfg.wifi_channel);
                let tx = if (sc.round() - sc).abs() <= MAX_SNAP_SUBCARRIERS {
                    sc.round()
                } else {
                    sc
                };
                ChannelPlan {
                    wifi_channel: cfg.wifi_channel,
                    subcarrier: sc,
                    tx_subcarrier: tx,
                    clearance: distance_to_pilot_or_null(tx),
                }
            })
            .collect();
        AudioDm5 {
            rng: StdRng::seed_from_u64(seed),
            cfg,
            plans,
            k: 0,
        }
    }

    /// One packet on each audio channel (covers every plan).
    pub fn one_per_channel(&mut self) -> Vec<Packet> {
        (0..self.plans.len()).map(|i| self.packet(i)).collect()
    }

    fn packet(&mut self, channel: usize) -> Packet {
        let header = BrHeader {
            lt_addr: 1,
            ptype: PacketType::Dm5,
            flow: true,
            arqn: false,
            seqn: self.k.is_multiple_of(2),
        };
        self.k += 1;
        let clk6_1 = self.rng.gen_range(0u8..64);
        let payload = random_bytes(&mut self.rng, PacketType::Dm5.max_payload());
        Packet {
            bits: br_air_bits(self.cfg.addr, &header, &payload, clk6_1),
            plan: self.plans[channel],
            seed: AUDIO_SEED,
            payload_bytes: payload.len(),
            sync: Sync::Br {
                lap: self.cfg.addr.lap,
            },
        }
    }
}

impl Iterator for AudioDm5 {
    type Item = Packet;
    fn next(&mut self) -> Option<Packet> {
        let channel = self.rng.gen_range(0..self.plans.len());
        Some(self.packet(channel))
    }
}

#[derive(Clone)]
struct Beacon {
    adv_address: [u8; 6],
    adv_data: Vec<u8>,
    counter_at: usize,
    counter: u16,
    seed: u8,
    weight: f64,
}

/// A beacon fleet. Beacon `b` has scrambler seed `1 + b mod 127`, 30 or 31
/// bytes of AdvData with a 2-byte counter in the middle, and popularity rank
/// `b + 1`, so every (beacon, channel) pair is a distinct template key and
/// every seed addresses the same keys with the same popularity; the seed
/// draws the addresses, contents, counters and the event sequence. An event
/// picks a beacon by Zipf popularity, bumps its counter and rebuilds the
/// packet with `adv_air_bits` (CRC and whitening stay valid) on each channel.
pub struct Fleet {
    rng: StdRng,
    beacons: Vec<Beacon>,
    cdf: Vec<f64>,
    channels: Vec<u8>,
    queued: VecDeque<Packet>,
}

impl Fleet {
    /// `n` beacons (at most 254) with Zipf exponent `zipf_s` (0 is uniform)
    /// on the advertising `channels`.
    pub fn new(seed: u64, n: usize, zipf_s: f64, channels: &[u8]) -> Fleet {
        assert!(n <= 254, "at most 254 distinct (seed, length) keys");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        let beacons = (0..n)
            .map(|b| {
                let len = 30 + b / 127;
                let mut adv_address = [0u8; 6];
                for byte in &mut adv_address {
                    *byte = rng.gen();
                }
                let weight = ((b + 1) as f64).powf(-zipf_s);
                total += weight;
                cdf.push(total);
                Beacon {
                    adv_address,
                    adv_data: random_bytes(&mut rng, len),
                    counter_at: len / 2 - 1,
                    counter: rng.gen(),
                    seed: 1 + (b % 127) as u8,
                    weight,
                }
            })
            .collect();
        Fleet {
            rng,
            beacons,
            cdf,
            channels: channels.to_vec(),
            queued: VecDeque::new(),
        }
    }

    /// Distinct template keys the fleet addresses.
    pub fn keys(&self) -> usize {
        self.beacons.len() * self.channels.len()
    }

    /// Every beacon's current packets, least popular first: synthesizing
    /// them in this order leaves the most popular templates resident.
    pub fn prefill(&self) -> Vec<Packet> {
        let mut order: Vec<usize> = (0..self.beacons.len()).collect();
        order.sort_by(|&a, &b| self.beacons[a].weight.total_cmp(&self.beacons[b].weight));
        order.iter().flat_map(|&b| self.packets(b)).collect()
    }

    /// A copy that continues with its own random stream (per-thread load).
    pub fn fork(&self, salt: u64) -> Fleet {
        let mut rng = self.rng.clone();
        Fleet {
            rng: StdRng::seed_from_u64(rng.next_u64() ^ salt),
            beacons: self.beacons.clone(),
            cdf: self.cdf.clone(),
            channels: self.channels.clone(),
            queued: VecDeque::new(),
        }
    }

    fn packets(&self, b: usize) -> Vec<Packet> {
        let beacon = &self.beacons[b];
        let mut adv_data = beacon.adv_data.clone();
        adv_data[beacon.counter_at..beacon.counter_at + 2]
            .copy_from_slice(&beacon.counter.to_le_bytes());
        let pdu = AdvPdu {
            pdu_type: AdvPduType::AdvNonconnInd,
            adv_address: beacon.adv_address,
            adv_data,
            tx_add: true,
        };
        self.channels
            .iter()
            .map(|&ch| Packet {
                bits: adv_air_bits(&pdu, ch),
                plan: adv_plan(ch),
                seed: beacon.seed,
                payload_bytes: 6 + beacon.adv_data.len(),
                sync: Sync::Ble,
            })
            .collect()
    }
}

impl Iterator for Fleet {
    type Item = Packet;
    fn next(&mut self) -> Option<Packet> {
        if self.queued.is_empty() {
            let total = *self.cdf.last()?;
            let u = self.rng.next_f64() * total;
            let b = self
                .cdf
                .partition_point(|&c| c <= u)
                .min(self.beacons.len() - 1);
            self.beacons[b].counter = self.beacons[b].counter.wrapping_add(1);
            let packets = self.packets(b);
            self.queued.extend(packets);
        }
        self.queued.pop_front()
    }
}

/// Poisson arrivals: exponential gaps at `rate_per_s`.
pub struct Poisson {
    rng: StdRng,
    rate_per_s: f64,
}

impl Poisson {
    /// Arrivals for `seed` at `rate_per_s`.
    pub fn new(seed: u64, rate_per_s: f64) -> Poisson {
        Poisson {
            rng: StdRng::seed_from_u64(seed),
            rate_per_s,
        }
    }

    /// Seconds until the next arrival.
    pub fn gap_s(&mut self) -> f64 {
        -(1.0 - self.rng.next_f64()).ln() / self.rate_per_s
    }
}

/// FNV-1a 64 over a byte stream.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds one packet into a digest.
pub fn digest_packet(h: u64, p: &Packet) -> u64 {
    let bits: Vec<u8> = p.bits.iter().map(|&b| b as u8).collect();
    let h = fnv1a(h, &bits);
    let h = fnv1a(h, &p.plan.tx_subcarrier.to_bits().to_le_bytes());
    fnv1a(h, &[p.plan.wifi_channel, p.seed])
}
