//! Packed word images: `width`-bit words laid end to end, LSB-first —
//! word `i` holds bits `i × width .. (i + 1) × width` of a `u64` slice
//! (a word may straddle two `u64`s). This is the layout of the exact
//! simulator's memory image and of [`crate::WriteTransducer::encode_packed`].

/// The low-`width`-bits mask (`width` in 1..=64).
pub(crate) fn mask(width: u32) -> u64 {
    debug_assert!((1..=64).contains(&width));
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Panics unless `word` fits in `width` bits — the check every
/// transducer's `encode` makes.
pub(crate) fn check_word(width: u32, word: u64) {
    assert!(
        word & !mask(width) == 0,
        "word {word:#x} has bits beyond width {width}"
    );
}

/// `u64`s in the image of `words` words of `width` bits.
pub fn image_len(words: usize, width: u32) -> usize {
    (words * width as usize).div_ceil(64)
}

/// Packs `words` into `image`, [`image_len`]`(words.len(), width)`
/// long: word `i` lands at bit offset `i × width` — exactly
/// [`write_bits`] of every word in sequence into a zeroed image, but
/// streamed with no read-modify-write. Bits past the last word are
/// zero.
///
/// # Panics
///
/// Panics on the first word with a bit beyond `width`, with the message
/// [`crate::WriteTransducer::encode`] gives for it, or if `image` has
/// the wrong length.
pub fn pack(words: &[u64], width: u32, image: &mut [u64]) {
    assert_eq!(
        image.len(),
        image_len(words.len(), width),
        "pack: image length mismatch"
    );
    let mut packer = Packer::default();
    for &word in words {
        check_word(width, word);
        packer.push(image, word, width);
    }
    packer.finish(image);
}

/// Streams `width`-bit words into consecutive bits of an image.
#[derive(Default)]
struct Packer {
    /// The low `fill` bits of `image[next]` pushed so far.
    acc: u64,
    fill: u32,
    next: usize,
}

impl Packer {
    #[inline(always)]
    fn push(&mut self, image: &mut [u64], word: u64, width: u32) {
        self.acc |= word << self.fill;
        self.fill += width;
        if self.fill >= 64 {
            image[self.next] = self.acc;
            self.next += 1;
            self.fill -= 64;
            self.acc = if self.fill == 0 {
                0
            } else {
                word >> (width - self.fill)
            };
        }
    }

    #[inline(always)]
    fn finish(self, image: &mut [u64]) {
        if self.fill > 0 {
            image[self.next] = self.acc;
        }
    }
}

/// Writes the low `width` bits of `value` into the packed bit image at
/// bit offset `offset` (LSB-first; a write may straddle one 64-bit
/// word boundary). Bits of `value` beyond `width` are ignored.
///
/// # Panics
///
/// Panics if the write reaches past the end of `state`, or if `width`
/// is 0 or above 64.
pub fn write_bits(state: &mut [u64], offset: usize, width: usize, value: u64) {
    assert!((1..=64).contains(&width), "write_bits: bad width {width}");
    let mask = mask(width as u32);
    let value = value & mask;
    let word = offset / 64;
    let pos = offset % 64;
    state[word] = (state[word] & !(mask << pos)) | (value << pos);
    let spill = pos + width;
    if spill > 64 {
        let hi_bits = spill - 64;
        let hi_mask = (1u64 << hi_bits) - 1;
        state[word + 1] = (state[word + 1] & !hi_mask) | (value >> (64 - pos));
    }
}

/// Reads `width` bits starting at bit `offset` from the packed image —
/// the inverse of [`write_bits`].
///
/// # Panics
///
/// Panics if the read reaches past the end of `state`, or if `width`
/// is 0 or above 64.
pub fn read_bits(state: &[u64], offset: usize, width: usize) -> u64 {
    assert!((1..=64).contains(&width), "read_bits: bad width {width}");
    let word = offset / 64;
    let pos = offset % 64;
    let mut value = state[word] >> pos;
    if pos + width > 64 {
        value |= state[word + 1] << (64 - pos);
    }
    value & mask(width as u32)
}

/// Checks one `encode_packed` call's slices: `raw` and `out` are images
/// of `words` words of `width` bits, and `raw` has no set bit past its
/// last word.
pub(crate) fn check_images(words: usize, width: u32, raw: &[u64], out: &[u64]) {
    let len = image_len(words, width);
    assert_eq!(raw.len(), len, "encode_packed: raw image length mismatch");
    assert_eq!(out.len(), len, "encode_packed: out image length mismatch");
    let live = words * width as usize % 64;
    if live != 0 {
        assert_eq!(
            raw[len - 1] >> live,
            0,
            "encode_packed: raw image has bits past its last word"
        );
    }
}

/// Stores `f(i, word_i)` for every `width`-bit word of `raw` into the
/// same place in `out`, calling `f` once per word in word order. `f`
/// must return a value of at most `width` bits; bits of `out` past the
/// last of the `words` words are cleared. The images are checked as
/// [`check_images`] does.
///
/// Widths that divide 64 run a lane loop specialised to the width (no
/// word straddles two `u64`s); any other width streams the words
/// through a shift register.
#[inline(always)]
pub(crate) fn map_words(
    width: u32,
    words: usize,
    raw: &[u64],
    out: &mut [u64],
    f: impl FnMut(usize, u64) -> u64,
) {
    check_images(words, width, raw, out);
    match width {
        1 => map_lanes::<1>(words, raw, out, f),
        2 => map_lanes::<2>(words, raw, out, f),
        4 => map_lanes::<4>(words, raw, out, f),
        8 => map_lanes::<8>(words, raw, out, f),
        16 => map_lanes::<16>(words, raw, out, f),
        32 => map_lanes::<32>(words, raw, out, f),
        64 => map_lanes::<64>(words, raw, out, f),
        _ => map_straddling(width, words, raw, out, f),
    }
}

#[inline(always)]
fn map_lanes<const W: u32>(
    words: usize,
    raw: &[u64],
    out: &mut [u64],
    mut f: impl FnMut(usize, u64) -> u64,
) {
    let per = (64 / W) as usize;
    let m = mask(W);
    let full = words / per;
    for (k, (&r, o)) in raw[..full].iter().zip(&mut out[..full]).enumerate() {
        let mut acc = 0;
        for j in 0..per {
            let shift = j as u32 * W;
            acc |= f(k * per + j, r >> shift & m) << shift;
        }
        *o = acc;
    }
    if !words.is_multiple_of(per) {
        let r = raw[full];
        let mut acc = 0;
        for j in 0..words % per {
            let shift = j as u32 * W;
            acc |= f(full * per + j, r >> shift & m) << shift;
        }
        out[full] = acc;
    }
}

#[inline(always)]
fn map_straddling(
    width: u32,
    words: usize,
    raw: &[u64],
    out: &mut [u64],
    mut f: impl FnMut(usize, u64) -> u64,
) {
    debug_assert!(width < 64, "64-bit words take the lane loop");
    let m = mask(width);
    // `acc` holds the `avail` bits of `raw[next - 1]` not yet read.
    let (mut acc, mut avail, mut next) = (0u64, 0u32, 0usize);
    let mut packer = Packer::default();
    for i in 0..words {
        let word = if avail >= width {
            let word = acc & m;
            acc >>= width;
            avail -= width;
            word
        } else {
            let r = raw[next];
            next += 1;
            let word = (acc | r << avail) & m;
            acc = r >> (width - avail);
            avail += 64 - width;
            word
        };
        packer.push(out, f(i, word), width);
    }
    packer.finish(out);
}
