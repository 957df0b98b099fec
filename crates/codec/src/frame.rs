//! Length-prefixed framing for JSON documents on a byte stream.
//!
//! The serving layer's loopback wire protocol (see `PROTOCOL.md` at the
//! repository root) exchanges [`Json`](crate::Json) documents over TCP. A
//! byte stream has no message boundaries, so every document travels inside
//! a **frame**: a fixed 8-byte header followed by the document's UTF-8
//! bytes. This module owns the header layout and nothing else — what the
//! `kind` byte means, which versions are speakable, and how large a payload
//! a peer will accept are *protocol* decisions that belong to the caller
//! (`hmd_serve::net`), keeping the codec reusable for any framed-document
//! transport.
//!
//! ```text
//! offset  size  field
//! 0       2     magic  0x48 0x4D ("HM") — resync/garbage detection
//! 2       1     version               — protocol version of the sender
//! 3       1     kind                  — opaque message discriminator
//! 4       4     length  u32 big-endian — payload byte count
//! 8       len   payload               — UTF-8 JSON document
//! ```
//!
//! The header is fixed-size on purpose: a reader always knows it needs
//! exactly [`HEADER_LEN`] bytes before it can size the payload, so a
//! bounded reader can refuse an oversized frame before reserving any
//! payload space, even when it reads ahead. Header parsing validates the
//! magic only — version and length policy are enforced by the layer that
//! knows the limits.

use crate::CodecError;

/// The two magic bytes opening every frame: `"HM"`.
///
/// A reader that sees anything else at a frame boundary is desynchronised
/// (or talking to a non-protocol peer) and must drop the connection — with
/// no self-synchronising delimiter in the stream there is no safe resync.
pub const MAGIC: [u8; 2] = *b"HM";

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 8;

/// The parsed fixed-size header of one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Protocol version byte of the sending peer.
    pub version: u8,
    /// Opaque message discriminator; meaning belongs to the protocol layer.
    pub kind: u8,
    /// Payload length in bytes. The codec places no policy on it — callers
    /// enforce their own maximum before allocating.
    pub len: u32,
}

impl FrameHeader {
    /// Serialises the header into its 8-byte wire form.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let len = self.len.to_be_bytes();
        [
            MAGIC[0],
            MAGIC[1],
            self.version,
            self.kind,
            len[0],
            len[1],
            len[2],
            len[3],
        ]
    }

    /// Parses an 8-byte wire header, validating the magic.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the first two bytes are not [`MAGIC`] — the caller
    /// is reading garbage or mid-stream and must close the connection.
    pub fn parse(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader, CodecError> {
        if bytes[0] != MAGIC[0] || bytes[1] != MAGIC[1] {
            return Err(CodecError::new(format!(
                "bad frame magic {:#04x} {:#04x} (expected {:#04x} {:#04x}): \
                 stream is desynchronised or the peer does not speak the protocol",
                bytes[0], bytes[1], MAGIC[0], MAGIC[1]
            )));
        }
        Ok(FrameHeader {
            version: bytes[2],
            kind: bytes[3],
            len: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
        })
    }
}

/// Encodes one complete frame: header plus `payload` bytes.
///
/// # Errors
///
/// [`CodecError`] if the payload does not fit the header's `u32` length
/// field.
pub fn encode_frame(version: u8, kind: u8, payload: &str) -> Result<Vec<u8>, CodecError> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        CodecError::new(format!(
            "frame payload of {} bytes exceeds the u32 length field",
            payload.len()
        ))
    })?;
    let header = FrameHeader { version, kind, len };
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&header.encode());
    out.extend_from_slice(payload.as_bytes());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trips_through_wire_form() {
        let header = FrameHeader {
            version: 3,
            kind: 0x81,
            len: 0xDEAD_BEEF,
        };
        let wire = header.encode();
        assert_eq!(&wire[..2], &MAGIC);
        assert_eq!(FrameHeader::parse(&wire).unwrap(), header);
    }

    #[test]
    fn encode_frame_prefixes_the_payload() {
        let frame = encode_frame(1, 7, "{\"ok\":true}").unwrap();
        assert_eq!(frame.len(), HEADER_LEN + 11);
        let mut head = [0u8; HEADER_LEN];
        head.copy_from_slice(&frame[..HEADER_LEN]);
        let header = FrameHeader::parse(&head).unwrap();
        assert_eq!((header.version, header.kind, header.len), (1, 7, 11));
        assert_eq!(&frame[HEADER_LEN..], b"{\"ok\":true}");
    }

    #[test]
    fn bad_magic_is_rejected_with_context() {
        let mut wire = FrameHeader {
            version: 1,
            kind: 0,
            len: 0,
        }
        .encode();
        wire[0] = b'X';
        let err = FrameHeader::parse(&wire).unwrap_err();
        assert!(err.message.contains("bad frame magic"), "{err}");
    }

    #[test]
    fn zero_length_payloads_are_valid_frames() {
        let frame = encode_frame(1, 6, "").unwrap();
        assert_eq!(frame.len(), HEADER_LEN);
    }
}
