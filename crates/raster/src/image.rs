//! The image container.

/// A rectangular raster of pixels stored row-major.
///
/// `Image<u8>` ([`GrayImage`]) carries grayscale frames; `Image<bool>`
/// ([`Bitmap`]) carries segmentation masks.
///
/// # Example
/// ```
/// use hdc_raster::Image;
/// let mut img: Image<u8> = Image::new(4, 3);
/// img.set(2, 1, 200);
/// assert_eq!(img.get(2, 1), Some(200));
/// assert_eq!(img.get(9, 9), None);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image<T> {
    width: u32,
    height: u32,
    data: Vec<T>,
}

/// Grayscale 8-bit image.
pub type GrayImage = Image<u8>;

/// Binary mask image.
pub type Bitmap = Image<bool>;

impl<T: Copy + Default> Image<T> {
    /// Creates an image filled with `T::default()`.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(width: u32, height: u32) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        Image {
            width,
            height,
            data: vec![T::default(); (width as usize) * (height as usize)],
        }
    }

    /// Creates an image filled with `value`.
    pub fn filled(width: u32, height: u32, value: T) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        Image {
            width,
            height,
            data: vec![value; (width as usize) * (height as usize)],
        }
    }

    /// Wraps an existing row-major pixel buffer.
    ///
    /// # Panics
    /// Panics if either dimension is zero or `data.len() != width * height`.
    pub fn from_raw(width: u32, height: u32, data: Vec<T>) -> Self {
        assert!(width > 0 && height > 0, "image must be non-empty");
        assert_eq!(
            data.len(),
            (width as usize) * (height as usize),
            "pixel buffer does not match dimensions"
        );
        Image {
            width,
            height,
            data,
        }
    }

    /// Re-dimensions the image to `width × height`, reusing the existing
    /// pixel buffer when possible (no allocation when the capacity already
    /// suffices). Pixel contents are unspecified afterwards; callers are
    /// expected to overwrite every pixel.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn reset_dimensions(&mut self, width: u32, height: u32) {
        assert!(width > 0 && height > 0, "image must be non-empty");
        let n = (width as usize) * (height as usize);
        self.data.resize(n, T::default());
        self.width = width;
        self.height = height;
    }

    /// Image width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total pixel count.
    pub fn pixel_count(&self) -> usize {
        self.data.len()
    }

    #[inline]
    fn index(&self, x: u32, y: u32) -> usize {
        (y as usize) * (self.width as usize) + (x as usize)
    }

    /// Pixel value at `(x, y)`, or `None` out of bounds.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> Option<T> {
        if x < self.width && y < self.height {
            Some(self.data[self.index(x, y)])
        } else {
            None
        }
    }

    /// Pixel value at signed coordinates; out-of-bounds reads as `T::default()`.
    ///
    /// This is the padding convention used by contour tracing.
    #[inline]
    pub fn get_padded(&self, x: i64, y: i64) -> T {
        // a negative coordinate wraps past every width and height
        if (x as u64) < u64::from(self.width) && (y as u64) < u64::from(self.height) {
            self.data[(y as usize) * (self.width as usize) + (x as usize)]
        } else {
            T::default()
        }
    }

    /// Sets the pixel at `(x, y)`; silently ignores out-of-bounds writes.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, value: T) {
        if x < self.width && y < self.height {
            let i = self.index(x, y);
            self.data[i] = value;
        }
    }

    /// Fills the whole image with `value`.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Raw row-major pixel slice.
    pub fn pixels(&self) -> &[T] {
        &self.data
    }

    /// Mutable raw row-major pixel slice.
    pub fn pixels_mut(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Iterates `(x, y, value)` over all pixels in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u32, T)> + '_ {
        let w = self.width;
        self.data
            .iter()
            .enumerate()
            .map(move |(i, v)| ((i as u32) % w, (i as u32) / w, *v))
    }

    /// Applies `f` to every pixel, producing a new image.
    pub fn map<U: Copy + Default, F: Fn(T) -> U>(&self, f: F) -> Image<U> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|v| f(*v)).collect(),
        }
    }
}

impl Bitmap {
    /// Number of `true` (foreground) pixels.
    pub fn count_foreground(&self) -> usize {
        self.pixels().iter().filter(|p| **p).count()
    }
}

impl GrayImage {
    /// Mean pixel intensity (0 for an empty image is impossible — images are
    /// non-empty by construction).
    pub fn mean(&self) -> f64 {
        self.pixels().iter().map(|p| *p as f64).sum::<f64>() / self.pixel_count() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_roundtrip() {
        let mut img: Image<u8> = Image::new(10, 5);
        img.set(9, 4, 7);
        assert_eq!(img.get(9, 4), Some(7));
        assert_eq!(img.get(10, 4), None);
        assert_eq!(img.get(9, 5), None);
    }

    #[test]
    fn out_of_bounds_set_is_ignored() {
        let mut img: Image<u8> = Image::new(2, 2);
        img.set(5, 5, 9);
        assert!(img.pixels().iter().all(|p| *p == 0));
    }

    #[test]
    fn padded_reads_default() {
        let mut img: Image<u8> = Image::filled(2, 2, 3);
        img.set(0, 0, 1);
        assert_eq!(img.get_padded(-1, 0), 0);
        assert_eq!(img.get_padded(0, 0), 1);
        assert_eq!(img.get_padded(2, 0), 0);
    }

    #[test]
    fn iter_order_is_row_major() {
        let mut img: Image<u8> = Image::new(2, 2);
        img.set(1, 0, 1);
        img.set(0, 1, 2);
        let pts: Vec<_> = img.iter().collect();
        assert_eq!(pts[1], (1, 0, 1));
        assert_eq!(pts[2], (0, 1, 2));
    }

    #[test]
    fn map_and_bitmap() {
        let mut img: GrayImage = Image::new(3, 3);
        img.set(1, 1, 200);
        let mask: Bitmap = img.map(|v| v > 100);
        assert_eq!(mask.count_foreground(), 1);
        assert_eq!(mask.get(1, 1), Some(true));
        assert_eq!(mask.get(0, 0), Some(false));
    }

    #[test]
    fn mean_of_a_filled_image() {
        let img: GrayImage = Image::filled(2, 2, 10);
        assert_eq!(img.mean(), 10.0);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_size_panics() {
        let _ = GrayImage::new(0, 10);
    }
}
