//! Bluetooth beacon formats and the AP-side beacon service (the paper's
//! first end-to-end app: "an 802.11n-compliant AP is transformed into a
//! Bluetooth beacon", controllable remotely).

use bluefi_bt::ble::{adv_air_bits, AdvChannel, AdvChannelError, AdvPdu, AdvPduType};
use bluefi_core::json::{Json, JsonError, ToJson};
use bluefi_core::pipeline::{BlueFi, Synthesis};

/// The beacon payload formats in common deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BeaconFormat {
    /// Apple iBeacon: 16-byte proximity UUID + major/minor + calibrated TX
    /// power.
    IBeacon {
        /// Proximity UUID.
        uuid: [u8; 16],
        /// Major group id.
        major: u16,
        /// Minor id.
        minor: u16,
        /// Calibrated RSSI at 1 m (two's complement dBm).
        measured_power: i8,
    },
    /// Google Eddystone-UID: 10-byte namespace + 6-byte instance.
    EddystoneUid {
        /// Calibrated TX power at 0 m.
        tx_power: i8,
        /// Namespace id.
        namespace: [u8; 10],
        /// Instance id.
        instance: [u8; 6],
    },
    /// Eddystone-URL with the spec's scheme/TLD compression.
    EddystoneUrl {
        /// Calibrated TX power at 0 m.
        tx_power: i8,
        /// URL scheme byte (0x00 = http://www., 0x01 = https://www.,
        /// 0x02 = http://, 0x03 = https://).
        scheme: u8,
        /// Compressed URL body.
        body: Vec<u8>,
    },
    /// AltBeacon (the open format).
    AltBeacon {
        /// Manufacturer id (little endian on air).
        mfg_id: u16,
        /// 20-byte beacon id.
        beacon_id: [u8; 20],
        /// Reference RSSI.
        reference_rssi: i8,
    },
}

impl BeaconFormat {
    /// Serializes the format's AD structures (the AdvData payload).
    pub fn ad_structures(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(31);
        // Flags AD: LE General Discoverable, BR/EDR not supported.
        out.extend_from_slice(&[0x02, 0x01, 0x06]);
        match self {
            BeaconFormat::IBeacon { uuid, major, minor, measured_power } => {
                out.extend_from_slice(&[0x1A, 0xFF, 0x4C, 0x00, 0x02, 0x15]);
                out.extend_from_slice(uuid);
                out.extend_from_slice(&major.to_be_bytes());
                out.extend_from_slice(&minor.to_be_bytes());
                out.push(*measured_power as u8);
            }
            BeaconFormat::EddystoneUid { tx_power, namespace, instance } => {
                // Service UUID 0xFEAA + service data.
                out.extend_from_slice(&[0x03, 0x03, 0xAA, 0xFE]);
                out.extend_from_slice(&[0x17, 0x16, 0xAA, 0xFE, 0x00]);
                out.push(*tx_power as u8);
                out.extend_from_slice(namespace);
                out.extend_from_slice(instance);
                out.extend_from_slice(&[0x00, 0x00]); // RFU
            }
            BeaconFormat::EddystoneUrl { tx_power, scheme, body } => {
                assert!(body.len() <= 17, "compressed URL too long");
                out.extend_from_slice(&[0x03, 0x03, 0xAA, 0xFE]);
                out.push((5 + body.len()) as u8);
                out.extend_from_slice(&[0x16, 0xAA, 0xFE, 0x10]);
                out.push(*tx_power as u8);
                out.push(*scheme);
                out.extend_from_slice(body);
            }
            BeaconFormat::AltBeacon { mfg_id, beacon_id, reference_rssi } => {
                out.push(0x1B);
                out.push(0xFF);
                out.extend_from_slice(&mfg_id.to_le_bytes());
                out.extend_from_slice(&[0xBE, 0xAC]);
                out.extend_from_slice(beacon_id);
                out.push(*reference_rssi as u8);
                out.push(0x00); // mfg reserved
            }
        }
        assert!(out.len() <= 31, "AdvData is at most 31 bytes ({})", out.len());
        out
    }

    /// Builds the advertising PDU for this beacon.
    pub fn to_pdu(&self, adv_address: [u8; 6]) -> AdvPdu {
        AdvPdu {
            pdu_type: AdvPduType::AdvNonconnInd,
            adv_address,
            adv_data: self.ad_structures(),
            tx_add: true,
        }
    }

    /// Parses a format back out of its [`ToJson`] representation.
    pub fn from_json(v: &Json) -> Result<BeaconFormat, JsonError> {
        let kind = v.get("type").and_then(Json::as_str).ok_or_else(|| bad("missing type"))?;
        match kind {
            "ibeacon" => Ok(BeaconFormat::IBeacon {
                uuid: byte_array(v, "uuid")?,
                major: num(v, "major")? as u16,
                minor: num(v, "minor")? as u16,
                measured_power: num(v, "measured_power")? as i8,
            }),
            "eddystone_uid" => Ok(BeaconFormat::EddystoneUid {
                tx_power: num(v, "tx_power")? as i8,
                namespace: byte_array(v, "namespace")?,
                instance: byte_array(v, "instance")?,
            }),
            "eddystone_url" => Ok(BeaconFormat::EddystoneUrl {
                tx_power: num(v, "tx_power")? as i8,
                scheme: num(v, "scheme")? as u8,
                body: byte_vec(v, "body")?,
            }),
            "altbeacon" => Ok(BeaconFormat::AltBeacon {
                mfg_id: num(v, "mfg_id")? as u16,
                beacon_id: byte_array(v, "beacon_id")?,
                reference_rssi: num(v, "reference_rssi")? as i8,
            }),
            other => Err(bad(&format!("unknown beacon format '{other}'"))),
        }
    }
}

fn bad(message: &str) -> JsonError {
    JsonError { message: message.to_string(), offset: 0 }
}

fn num(v: &Json, key: &str) -> Result<f64, JsonError> {
    v.get(key).and_then(Json::as_f64).ok_or_else(|| bad(&format!("missing number '{key}'")))
}

fn byte_vec(v: &Json, key: &str) -> Result<Vec<u8>, JsonError> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| bad(&format!("missing array '{key}'")))?
        .iter()
        .map(|e| e.as_f64().map(|n| n as u8).ok_or_else(|| bad("non-numeric byte")))
        .collect()
}

fn byte_array<const N: usize>(v: &Json, key: &str) -> Result<[u8; N], JsonError> {
    let bytes = byte_vec(v, key)?;
    bytes
        .try_into()
        .map_err(|_| bad(&format!("'{key}' must hold exactly {N} bytes")))
}

fn json_bytes(bytes: &[u8]) -> Json {
    Json::Arr(bytes.iter().map(|&b| Json::Num(b as f64)).collect())
}

impl ToJson for BeaconFormat {
    fn to_json(&self) -> Json {
        match self {
            BeaconFormat::IBeacon { uuid, major, minor, measured_power } => Json::obj(vec![
                ("type", Json::Str("ibeacon".into())),
                ("uuid", json_bytes(uuid)),
                ("major", Json::Num(*major as f64)),
                ("minor", Json::Num(*minor as f64)),
                ("measured_power", Json::Num(*measured_power as f64)),
            ]),
            BeaconFormat::EddystoneUid { tx_power, namespace, instance } => Json::obj(vec![
                ("type", Json::Str("eddystone_uid".into())),
                ("tx_power", Json::Num(*tx_power as f64)),
                ("namespace", json_bytes(namespace)),
                ("instance", json_bytes(instance)),
            ]),
            BeaconFormat::EddystoneUrl { tx_power, scheme, body } => Json::obj(vec![
                ("type", Json::Str("eddystone_url".into())),
                ("tx_power", Json::Num(*tx_power as f64)),
                ("scheme", Json::Num(*scheme as f64)),
                ("body", json_bytes(body)),
            ]),
            BeaconFormat::AltBeacon { mfg_id, beacon_id, reference_rssi } => Json::obj(vec![
                ("type", Json::Str("altbeacon".into())),
                ("mfg_id", Json::Num(*mfg_id as f64)),
                ("beacon_id", json_bytes(beacon_id)),
                ("reference_rssi", Json::Num(*reference_rssi as f64)),
            ]),
        }
    }
}

/// Remotely-configurable beacon service state (the paper controls BlueFi
/// over SSH "from either the Internet … local Ethernet or WiFi" — this is
/// the serializable config such a control plane would push).
#[derive(Debug, Clone, PartialEq)]
pub struct BeaconConfig {
    /// Beacon payload.
    pub format: BeaconFormat,
    /// Advertiser address.
    pub adv_address: [u8; 6],
    /// Broadcast rate, Hz.
    pub rate_hz: f64,
    /// Advertising channels to broadcast on (the transmitter may use 1, 2
    /// or 3 of them; 2402 MHz is not coverable by WiFi, see DESIGN.md).
    pub channels: Vec<u8>,
    /// Running?
    pub enabled: bool,
}

impl ToJson for BeaconConfig {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("format", self.format.to_json()),
            ("adv_address", json_bytes(&self.adv_address)),
            ("rate_hz", Json::Num(self.rate_hz)),
            ("channels", json_bytes(&self.channels)),
            ("enabled", Json::Bool(self.enabled)),
        ])
    }
}

impl BeaconConfig {
    /// Parses the config a control plane pushed as JSON text.
    pub fn from_json_text(text: &str) -> Result<BeaconConfig, JsonError> {
        let v = Json::parse(text)?;
        Ok(BeaconConfig {
            format: BeaconFormat::from_json(
                v.get("format").ok_or_else(|| bad("missing format"))?,
            )?,
            adv_address: byte_array(&v, "adv_address")?,
            rate_hz: num(&v, "rate_hz")?,
            channels: byte_vec(&v, "channels")?,
            enabled: v
                .get("enabled")
                .and_then(Json::as_bool)
                .ok_or_else(|| bad("missing enabled"))?,
        })
    }
}

impl Default for BeaconConfig {
    fn default() -> BeaconConfig {
        BeaconConfig {
            format: BeaconFormat::IBeacon {
                uuid: [0xB1; 16],
                major: 1,
                minor: 2,
                measured_power: -59,
            },
            adv_address: [0xB1, 0x0E, 0xF1, 0x00, 0x00, 0x01],
            rate_hz: 10.0,
            channels: vec![38, 39],
            enabled: true,
        }
    }
}

/// A beacon transmission ready for the WiFi driver: per advertising
/// channel, the synthesized PSDU.
#[derive(Debug)]
pub struct BeaconPackets {
    /// (advertising channel, synthesis) pairs; channels no WiFi channel
    /// covers are skipped (BLE 37 / 2402 MHz).
    pub per_channel: Vec<(u8, Synthesis)>,
}

/// Synthesizes the configured beacon for every requested advertising
/// channel. `seed` is the scrambler seed the chip will apply.
///
/// Channels outside 37..=39 are rejected (a control plane pushing configs
/// over the network must not be able to panic the AP); valid channels no
/// WiFi channel covers (BLE 37 / 2402 MHz) are silently skipped.
pub fn build_beacon(
    cfg: &BeaconConfig,
    bf: &BlueFi,
    seed: u8,
) -> Result<BeaconPackets, AdvChannelError> {
    let pdu = cfg.format.to_pdu(cfg.adv_address);
    let mut per_channel = Vec::new();
    for &ch in &cfg.channels {
        let adv = AdvChannel::new(ch)?;
        let bits = adv_air_bits(&pdu, adv.index());
        if let Some(syn) = bf.synthesize(&bits, adv.freq_hz(), seed) {
            per_channel.push((adv.index(), syn));
        }
    }
    Ok(BeaconPackets { per_channel })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ibeacon_layout() {
        let b = BeaconFormat::IBeacon {
            uuid: [0xAB; 16],
            major: 0x0102,
            minor: 0x0304,
            measured_power: -59,
        };
        let ad = b.ad_structures();
        assert_eq!(ad.len(), 3 + 27);
        // Apple company id + iBeacon type/length.
        assert_eq!(&ad[3..9], &[0x1A, 0xFF, 0x4C, 0x00, 0x02, 0x15]);
        assert_eq!(&ad[9..25], &[0xAB; 16]);
        assert_eq!(&ad[25..29], &[0x01, 0x02, 0x03, 0x04]);
        assert_eq!(ad[29] as i8, -59);
    }

    #[test]
    fn eddystone_uid_layout() {
        let b = BeaconFormat::EddystoneUid {
            tx_power: -10,
            namespace: [1; 10],
            instance: [2; 6],
        };
        let ad = b.ad_structures();
        assert!(ad.len() <= 31);
        // Service-data AD for 0xFEAA, frame type 0x00.
        assert_eq!(&ad[7..12], &[0x17, 0x16, 0xAA, 0xFE, 0x00]);
    }

    #[test]
    fn eddystone_url_respects_length() {
        let b = BeaconFormat::EddystoneUrl {
            tx_power: -20,
            scheme: 0x03,
            body: b"example.com".to_vec(),
        };
        let ad = b.ad_structures();
        assert!(ad.len() <= 31, "{}", ad.len());
    }

    #[test]
    fn altbeacon_layout() {
        let b = BeaconFormat::AltBeacon {
            mfg_id: 0x0118,
            beacon_id: [7; 20],
            reference_rssi: -65,
        };
        let ad = b.ad_structures();
        assert_eq!(ad[4], 0xFF);
        assert_eq!(&ad[7..9], &[0xBE, 0xAC]);
    }

    #[test]
    fn every_format_fits_a_pdu() {
        let formats = [
            BeaconFormat::IBeacon { uuid: [0; 16], major: 0, minor: 0, measured_power: 0 },
            BeaconFormat::EddystoneUid { tx_power: 0, namespace: [0; 10], instance: [0; 6] },
            BeaconFormat::EddystoneUrl { tx_power: 0, scheme: 1, body: b"a.io".to_vec() },
            BeaconFormat::AltBeacon { mfg_id: 1, beacon_id: [0; 20], reference_rssi: 0 },
        ];
        for f in formats {
            let pdu = f.to_pdu([1, 2, 3, 4, 5, 6]);
            let bytes = pdu.to_bytes();
            assert!(bytes.len() <= 2 + 6 + 31);
            assert_eq!(AdvPdu::from_bytes(&bytes), Some(pdu));
        }
    }

    #[test]
    fn build_beacon_skips_uncoverable_channels() {
        let cfg = BeaconConfig { channels: vec![37, 38, 39], ..Default::default() };
        let packets = build_beacon(&cfg, &BlueFi::default(), 71).unwrap();
        let chans: Vec<u8> = packets.per_channel.iter().map(|(c, _)| *c).collect();
        // 37 (2402 MHz) cannot be planned; 38 and 39 can.
        assert_eq!(chans, vec![38, 39]);
    }

    #[test]
    fn build_beacon_rejects_out_of_range_channels() {
        let cfg = BeaconConfig { channels: vec![38, 40], ..Default::default() };
        let err = build_beacon(&cfg, &BlueFi::default(), 71).unwrap_err();
        assert_eq!(err, bluefi_bt::ble::AdvChannelError(40));
    }

    #[test]
    fn config_roundtrips_through_json() {
        // The remote-control plane pushes configs as JSON text; every
        // format must survive the render → parse round trip.
        let formats = [
            BeaconFormat::IBeacon { uuid: [7; 16], major: 700, minor: 7, measured_power: -59 },
            BeaconFormat::EddystoneUid { tx_power: -4, namespace: [3; 10], instance: [9; 6] },
            BeaconFormat::EddystoneUrl { tx_power: 0, scheme: 1, body: b"bluefi.io".to_vec() },
            BeaconFormat::AltBeacon { mfg_id: 0x0118, beacon_id: [5; 20], reference_rssi: -65 },
        ];
        for format in formats {
            let cfg = BeaconConfig { format, ..Default::default() };
            let text = cfg.to_json().render();
            let back = BeaconConfig::from_json_text(&text).unwrap();
            assert_eq!(back, cfg, "{text}");
        }
        assert!(BeaconConfig::from_json_text("{}").is_err());
        assert!(BeaconConfig::from_json_text("not json").is_err());
    }
}
