//! Image serialisation: binary PGM (P5) output and ASCII-art debugging dumps.

use crate::image::{Bitmap, GrayImage};
use std::fmt::Write as _;
use std::io;

/// Encodes a grayscale image as binary PGM (P5).
pub fn encode_pgm(img: &GrayImage) -> Vec<u8> {
    let mut out = format!("P5\n{} {}\n255\n", img.width(), img.height()).into_bytes();
    out.extend_from_slice(img.pixels());
    out
}

/// Decodes a binary PGM (P5) image previously produced by [`encode_pgm`].
///
/// # Errors
/// Returns `InvalidData` for malformed headers, unsupported max values or
/// truncated pixel data.
pub fn decode_pgm(bytes: &[u8]) -> io::Result<GrayImage> {
    let err = |m: &str| io::Error::new(io::ErrorKind::InvalidData, m.to_string());
    // Tokenise the header directly from bytes: four whitespace-delimited
    // tokens (magic, width, height, maxval), then exactly one whitespace
    // byte, then raw pixel data.
    let mut tokens: Vec<String> = Vec::with_capacity(4);
    let mut pos = 0usize;
    let mut token = String::new();
    for (i, b) in bytes.iter().enumerate() {
        if b.is_ascii_whitespace() {
            if !token.is_empty() {
                tokens.push(std::mem::take(&mut token));
                if tokens.len() == 4 {
                    pos = i + 1;
                    break;
                }
            }
        } else if b.is_ascii_graphic() {
            token.push(*b as char);
        } else if tokens.len() < 4 {
            return Err(err("binary byte inside header"));
        }
    }
    if tokens.len() < 4 {
        return Err(err("truncated header"));
    }
    if tokens[0] != "P5" {
        return Err(err("not a binary PGM"));
    }
    let w: u32 = tokens[1].parse().map_err(|_| err("bad width"))?;
    let h: u32 = tokens[2].parse().map_err(|_| err("bad height"))?;
    let maxval: u32 = tokens[3].parse().map_err(|_| err("bad maxval"))?;
    if maxval != 255 {
        return Err(err("only maxval 255 supported"));
    }
    let need = (w as usize) * (h as usize);
    let data = bytes
        .get(pos..pos + need)
        .ok_or_else(|| err("truncated pixel data"))?;
    let mut img = GrayImage::new(w, h);
    img.pixels_mut().copy_from_slice(data);
    Ok(img)
}

/// Renders a binary mask as ASCII art (`#` foreground, `.` background), one
/// row per line. Intended for debugging and documentation snapshots.
pub fn ascii_art(mask: &Bitmap) -> String {
    let mut s = String::with_capacity((mask.width() as usize + 1) * mask.height() as usize);
    for y in 0..mask.height() {
        for x in 0..mask.width() {
            let _ = write!(
                s,
                "{}",
                if mask.get(x, y) == Some(true) {
                    '#'
                } else {
                    '.'
                }
            );
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pgm_roundtrip() {
        let mut img = GrayImage::new(3, 2);
        img.set(0, 0, 10);
        img.set(2, 1, 250);
        let bytes = encode_pgm(&img);
        let back = decode_pgm(&bytes).unwrap();
        assert_eq!(back, img);
    }

    #[test]
    fn pgm_rejects_garbage() {
        assert!(decode_pgm(b"P6\n1 1\n255\nx").is_err());
        assert!(decode_pgm(b"P5\n2 2\n255\nab").is_err()); // truncated
        assert!(decode_pgm(b"").is_err());
    }

    #[test]
    fn ascii_art_renders() {
        let mut m = Bitmap::new(3, 2);
        m.set(1, 0, true);
        assert_eq!(ascii_art(&m), ".#.\n...\n");
    }
}
