//! Byte-size units and formatting helpers.

/// One kibibyte.
pub const KB: u64 = 1024;
/// One mebibyte.
pub const MB: u64 = 1024 * KB;
/// One gibibyte.
pub const GB: u64 = 1024 * MB;
/// One tebibyte.
pub const TB: u64 = 1024 * GB;

/// The paper's default block size (§2.1).
pub const DEFAULT_BLOCK_SIZE: u64 = 128 * MB;

/// Formats a byte count with a binary-unit suffix, e.g. `1.5 GB`.
pub fn fmt_bytes(bytes: u64) -> String {
    let b = bytes as f64;
    if bytes >= TB {
        format!("{:.2} TB", b / TB as f64)
    } else if bytes >= GB {
        format!("{:.2} GB", b / GB as f64)
    } else if bytes >= MB {
        format!("{:.2} MB", b / MB as f64)
    } else if bytes >= KB {
        format!("{:.2} KB", b / KB as f64)
    } else {
        format!("{bytes} B")
    }
}

/// Converts MB/sec (binary MB) to bytes/sec.
pub fn mbps_to_bytes_per_sec(mbps: f64) -> f64 {
    mbps * MB as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2 * KB), "2.00 KB");
        assert_eq!(fmt_bytes(3 * MB + MB / 2), "3.50 MB");
        assert_eq!(fmt_bytes(GB), "1.00 GB");
        assert_eq!(fmt_bytes(2 * TB), "2.00 TB");
    }

    #[test]
    fn default_block_size_is_128mb() {
        assert_eq!(DEFAULT_BLOCK_SIZE, 134_217_728);
    }
}
