"""End-to-end MiniC programs: compile, run, check output/exit code."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cc.driver import compile_source

#: what a MiniC string literal must escape (a raw newline ends it)
_MINIC_ESCAPED = {"\\": "\\\\", '"': '\\"', "\n": "\\n"}


class TestBasics:
    def test_return_value(self, run_c):
        assert run_c("int main() { return 42; }").exit_code == 42

    def test_print_int(self, run_c):
        assert run_c(
            "int main() { print_int(12345); return 0; }").stdout == "12345"

    def test_print_negative(self, run_c):
        assert run_c(
            "int main() { print_int(-987); return 0; }").stdout == "-987"

    def test_print_zero(self, run_c):
        assert run_c(
            "int main() { print_int(0); return 0; }").stdout == "0"

    def test_print_str(self, run_c):
        source = 'int main() { print_str("hello world\\n"); return 0; }'
        assert run_c(source).stdout == "hello world\n"

    def test_print_char(self, run_c):
        assert run_c(
            "int main() { print_char('A' + 1); return 0; }").stdout == "B"

    def test_arithmetic_precedence(self, run_c):
        assert run_c(
            "int main() { return 2 + 3 * 4 - 6 / 2; }").exit_code == 11

    def test_hex_literals(self, run_c):
        assert run_c(
            "int main() { return 0xFF & 0x0F; }").exit_code == 15

    def test_exit_builtin(self, run_c):
        assert run_c(
            "int main() { exit(7); return 0; }").exit_code == 7


class TestVariablesAndScope:
    def test_locals(self, run_c):
        source = """
        int main() {
            int a = 10;
            int b = 20;
            int c = a + b;
            return c;
        }
        """
        assert run_c(source).exit_code == 30

    def test_shadowing(self, run_c):
        source = """
        int main() {
            int x = 1;
            {
                int x = 2;
                print_int(x);
            }
            print_int(x);
            return 0;
        }
        """
        assert run_c(source).stdout == "21"

    def test_globals(self, run_c):
        source = """
        int counter = 5;
        int limit;
        int main() {
            limit = 3;
            counter = counter + limit;
            return counter;
        }
        """
        assert run_c(source).exit_code == 8

    def test_global_array_init(self, run_c):
        source = """
        int table[5] = {10, 20, 30};
        int main() {
            return table[0] + table[1] + table[2] + table[3] + table[4];
        }
        """
        assert run_c(source).exit_code == 60

    def test_global_string_pointer(self, run_c):
        source = """
        char *greeting = "hi";
        int main() {
            print_str(greeting);
            return 0;
        }
        """
        assert run_c(source).stdout == "hi"

    def test_global_char_array_string(self, run_c):
        source = """
        char name[] = "abc";
        int main() {
            print_str(name);
            return name[1];
        }
        """
        result = run_c(source)
        assert result.stdout == "abc"
        assert result.exit_code == ord("b")


class TestControlFlow:
    def test_if_else_chain(self, run_c):
        source = """
        int classify(int x) {
            if (x < 0) { return 1; }
            else if (x == 0) { return 2; }
            else { return 3; }
        }
        int main() {
            return classify(-5) * 100 + classify(0) * 10 + classify(9);
        }
        """
        assert run_c(source).exit_code == 123

    def test_while_loop(self, run_c):
        source = """
        int main() {
            int sum = 0;
            int i = 1;
            while (i <= 10) {
                sum += i;
                i++;
            }
            return sum;
        }
        """
        assert run_c(source).exit_code == 55

    def test_for_loop(self, run_c):
        source = """
        int main() {
            int product = 1;
            for (int i = 1; i <= 5; i++) {
                product *= i;
            }
            return product;
        }
        """
        assert run_c(source).exit_code == 120

    def test_break_continue(self, run_c):
        source = """
        int main() {
            int sum = 0;
            for (int i = 0; i < 100; i++) {
                if (i % 2) { continue; }
                if (i > 10) { break; }
                sum += i;
            }
            return sum;      // 0+2+4+6+8+10 = 30
        }
        """
        assert run_c(source).exit_code == 30

    def test_nested_loops(self, run_c):
        source = """
        int main() {
            int count = 0;
            for (int i = 0; i < 5; i++) {
                for (int j = 0; j < 5; j++) {
                    if (i == j) { continue; }
                    count++;
                }
            }
            return count;    // 25 - 5
        }
        """
        assert run_c(source).exit_code == 20

    def test_logical_short_circuit(self, run_c):
        source = """
        int calls = 0;
        int bump() { calls++; return 1; }
        int main() {
            int a = 0 && bump();
            int b = 1 || bump();
            return calls * 10 + a + b;   // calls must stay 0
        }
        """
        assert run_c(source).exit_code == 1

    def test_logical_values(self, run_c):
        source = """
        int main() {
            return (3 && 5) * 8 + (0 || 7) * 4 + (0 && 9) * 2 + (0 || 0);
        }
        """
        assert run_c(source).exit_code == 12


class TestFunctions:
    def test_recursion_factorial(self, run_c):
        source = """
        int fact(int n) {
            if (n <= 1) { return 1; }
            return n * fact(n - 1);
        }
        int main() { return fact(5); }
        """
        assert run_c(source).exit_code == 120

    def test_recursion_fibonacci(self, run_c):
        source = """
        int fib(int n) {
            if (n < 2) { return n; }
            return fib(n - 1) + fib(n - 2);
        }
        int main() { return fib(10); }
        """
        assert run_c(source).exit_code == 55

    def test_many_parameters(self, run_c):
        source = """
        int sum8(int a, int b, int c, int d, int e, int f, int g, int h) {
            return a + b + c + d + e + f + g + h;
        }
        int main() { return sum8(1, 2, 3, 4, 5, 6, 7, 8); }
        """
        assert run_c(source).exit_code == 36

    def test_void_function(self, run_c):
        source = """
        int total = 0;
        void add(int x) { total += x; }
        int main() {
            add(3);
            add(4);
            return total;
        }
        """
        assert run_c(source).exit_code == 7

    def test_mutual_recursion(self, run_c):
        source = """
        int is_odd(int n);
        int is_even(int n) {
            if (n == 0) { return 1; }
            return is_odd(n - 1);
        }
        int is_odd(int n) {
            if (n == 0) { return 0; }
            return is_even(n - 1);
        }
        int main() { return is_even(10) * 10 + is_odd(7); }
        """
        # MiniC has no prototypes; rewrite without forward declaration.
        source = """
        int is_even(int n) {
            if (n == 0) { return 1; }
            if (n == 1) { return 0; }
            return is_even(n - 2);
        }
        int main() { return is_even(10) * 10 + is_even(7); }
        """
        assert run_c(source).exit_code == 10


class TestPointersAndArrays:
    def test_address_of_and_deref(self, run_c):
        source = """
        int main() {
            int x = 5;
            int *p = &x;
            *p = 9;
            return x;
        }
        """
        assert run_c(source).exit_code == 9

    def test_pointer_parameter(self, run_c):
        source = """
        void swap(int *a, int *b) {
            int t = *a;
            *a = *b;
            *b = t;
        }
        int main() {
            int x = 3;
            int y = 4;
            swap(&x, &y);
            return x * 10 + y;
        }
        """
        assert run_c(source).exit_code == 43

    def test_local_array(self, run_c):
        source = """
        int main() {
            int a[10];
            for (int i = 0; i < 10; i++) { a[i] = i * i; }
            return a[7];
        }
        """
        assert run_c(source).exit_code == 49

    def test_array_as_argument(self, run_c):
        source = """
        int sum(int *a, int n) {
            int s = 0;
            for (int i = 0; i < n; i++) { s += a[i]; }
            return s;
        }
        int main() {
            int data[4];
            data[0] = 1; data[1] = 2; data[2] = 3; data[3] = 4;
            return sum(data, 4);
        }
        """
        assert run_c(source).exit_code == 10

    def test_pointer_arithmetic(self, run_c):
        source = """
        int main() {
            int a[5];
            for (int i = 0; i < 5; i++) { a[i] = i + 1; }
            int *p = a;
            p = p + 2;
            return *p + *(p + 1);   // 3 + 4
        }
        """
        assert run_c(source).exit_code == 7

    def test_char_array_bytes(self, run_c):
        source = """
        int main() {
            char buf[4];
            buf[0] = 300;        // truncates to 44
            return buf[0];
        }
        """
        assert run_c(source).exit_code == 44

    def test_pointer_increment_through_string(self, run_c):
        source = """
        int main() {
            char *s = "xyz";
            int count = 0;
            while (*s) {
                count++;
                s++;
            }
            return count;
        }
        """
        assert run_c(source).exit_code == 3


class TestOperators:
    def test_compound_assignment(self, run_c):
        source = """
        int main() {
            int x = 100;
            x += 5; x -= 3; x *= 2; x /= 4; x %= 13;
            x <<= 2; x >>= 1; x |= 8; x &= 14; x ^= 5;
            return x;
        }
        """
        x = 100
        x += 5; x -= 3; x *= 2; x //= 4; x %= 13
        x <<= 2; x >>= 1; x |= 8; x &= 14; x ^= 5
        assert run_c(source).exit_code == x

    def test_prefix_postfix(self, run_c):
        source = """
        int main() {
            int i = 5;
            int a = i++;
            int b = ++i;
            return a * 10 + b;   // 5, 7 -> 57
        }
        """
        assert run_c(source).exit_code == 57

    def test_negative_division_c_semantics(self, run_c):
        source = """
        int main() {
            int a = -7 / 2;     // -3
            int b = -7 % 2;     // -1
            return (a == -3) * 10 + (b == -1);
        }
        """
        assert run_c(source).exit_code == 11

    def test_bitwise_and_shifts(self, run_c):
        source = """
        int main() {
            int x = 0xF0;
            return ((x >> 4) | (1 << 8)) ^ 0x10F;
        }
        """
        assert run_c(source).exit_code == ((0xF0 >> 4) | (1 << 8)) ^ 0x10F

    def test_unary_ops(self, run_c):
        source = """
        int main() {
            int x = 6;
            return (-x + 10) * 100 + (~x & 0xF) * 10 + !x + !(!x);
        }
        """
        expected = (4 * 100 + (~6 & 0xF) * 10 + 0 + 1) & 0xFF
        assert run_c(source).exit_code == expected

    def test_comparisons(self, run_c):
        source = """
        int main() {
            return (1 < 2) + (2 <= 2) + (3 > 2) + (2 >= 3) + (5 == 5)
                 + (5 != 5);
        }
        """
        assert run_c(source).exit_code == 4


class TestLargerPrograms:
    def test_iterative_gcd(self, run_c):
        source = """
        int gcd(int a, int b) {
            while (b != 0) {
                int t = b;
                b = a % b;
                a = t;
            }
            return a;
        }
        int main() { return gcd(1071, 462); }
        """
        assert run_c(source).exit_code == 21

    def test_sieve(self, run_c):
        source = """
        int main() {
            char sieve[100];
            for (int i = 0; i < 100; i++) { sieve[i] = 1; }
            sieve[0] = 0; sieve[1] = 0;
            for (int i = 2; i < 100; i++) {
                if (sieve[i]) {
                    for (int j = i + i; j < 100; j += i) { sieve[j] = 0; }
                }
            }
            int count = 0;
            for (int i = 0; i < 100; i++) { count += sieve[i]; }
            return count;    // 25 primes below 100
        }
        """
        assert run_c(source).exit_code == 25

    def test_string_reverse(self, run_c):
        source = """
        int main() {
            char buf[16];
            char *src = "minic";
            int n = 0;
            while (src[n]) { n++; }
            for (int i = 0; i < n; i++) { buf[i] = src[n - 1 - i]; }
            buf[n] = 0;
            print_str(buf);
            return 0;
        }
        """
        assert run_c(source).stdout == "cinim"

    def test_64bit_values(self, run_c):
        source = """
        int main() {
            int big = 0x123456789AB;
            int x = big / 1000000;
            print_int(x);
            return 0;
        }
        """
        assert run_c(source).stdout == str(0x123456789AB // 1000000)


class TestStringLiterals:
    """Every latin-1 character a MiniC string holds reaches the data
    section, including those ``str.splitlines()`` treats as line ends
    (``\\x0b``, ``\\x0c``, ``\\x1c``-``\\x1e``, ``\\x85``)."""

    def test_form_feed_reaches_the_console(self, run_c):
        source = 'int main() { print_str("a\x0cb"); return 0; }'
        assert run_c(source).stdout == "a\x0cb"

    @settings(max_examples=60, deadline=None)
    @given(text=st.text(st.characters(min_codepoint=1,
                                      max_codepoint=0xFF), max_size=24))
    def test_any_latin_1_string_compiles_to_its_bytes(self, text):
        literal = "".join(_MINIC_ESCAPED.get(ch, ch) for ch in text)
        program = compile_source(
            'int main() { print_str("' + literal + '"); return 0; }'
        ).program
        offset = program.symbols["__str0"] - program.data_base
        assert program.data[offset:offset + len(text) + 1] \
            == text.encode("latin-1") + b"\x00"
