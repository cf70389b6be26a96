module ipscope/benchmark

go 1.22

require ipscope v0.0.0

replace ipscope => ../
