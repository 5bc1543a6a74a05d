//! `.cldg` format v1 images for tests. The library reads v1
//! (`cldiam_graph::io::binary`) but writes only v2, so the suites that need
//! v1 bytes build them here. It uses nothing but `std`, so unit and
//! integration tests alike include it by path.

/// The v1 image of raw CSR arrays (`offsets` holds `n + 1` entries), with
/// valid checksums. The arrays need not form a valid graph, so a test can
/// forge a well-checksummed image of a broken one.
pub fn v1_image(offsets: &[usize], targets: &[u32], weights: &[u32]) -> Vec<u8> {
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
            (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
    let mut image = b"CLDG".to_vec();
    image.extend_from_slice(&1u32.to_le_bytes());
    image.extend_from_slice(&(offsets.len() as u64 - 1).to_le_bytes());
    image.extend_from_slice(&(targets.len() as u64).to_le_bytes());
    let header_sum = fnv1a(&image);
    image.extend_from_slice(&header_sum.to_le_bytes());
    let offsets: Vec<u8> = offsets.iter().flat_map(|&o| (o as u64).to_le_bytes()).collect();
    let le32 = |xs: &[u32]| xs.iter().flat_map(|x| x.to_le_bytes()).collect::<Vec<u8>>();
    for section in [offsets, le32(targets), le32(weights)] {
        image.extend_from_slice(&(section.len() as u64).to_le_bytes());
        image.extend_from_slice(&fnv1a(&section).to_le_bytes());
        image.extend_from_slice(&section);
    }
    image
}
