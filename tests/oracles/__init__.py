"""Reference implementations that production code is checked against."""
