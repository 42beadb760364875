"""The ERIC compiler: compile, sign, encrypt, package — with timings.

This wraps the MiniC driver (the "baseline compiler" of Fig. 6) and adds
the paper's step ③: signature generation, encryption under the target's
PUF-based key, and packaging.  ``compile_and_package`` measures each
stage's wall time so the Fig. 6 bench can report

    (ERIC compile time) / (baseline compile time)

exactly as the paper does.

The flow is split along the device boundary: :meth:`EricCompiler.prepare`
produces a :class:`CompiledArtifact` — everything that does *not* depend
on the target device (program image, signature, encryption map) — and
:meth:`EricCompiler.package_artifact` binds one artifact to one device
key.  Fleet deployment (``repro.service``) caches artifacts so a
thousand-device rollout pays for compilation and signing exactly once.

A :class:`~repro.policy.ProtectionPolicy` slots into the same pipeline:
its obfuscate rules rewrite the generated assembly (opaque-predicate
insertion) before signing, and its encrypt rules replace the
config-driven encryption map with a per-region one — both inside
``prepare()``, so every downstream consumer (fleet cache, farm,
figures) inherits policy support unchanged.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from repro.asm.program import Program
from repro.cc.driver import CompileResult, compile_source
from repro.core.config import EricConfig
from repro.core.encryptor import (EncryptedProgram, EncryptionMap,
                                  build_map, encrypt_program)
from repro.core.keys import KeyManagementUnit
from repro.core.package import ProgramPackage
from repro.core.signature import compute_signature
from repro.errors import ConfigError


@dataclass
class PackagingTimings:
    """Wall-clock seconds per stage (Fig. 6's raw material)."""

    compile_s: float = 0.0
    signature_s: float = 0.0
    encryption_s: float = 0.0
    packaging_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (self.compile_s + self.signature_s + self.encryption_s
                + self.packaging_s)

    @property
    def eric_overhead_s(self) -> float:
        """Time added on top of the plain compile."""
        return self.signature_s + self.encryption_s + self.packaging_s


@dataclass
class EricCompileResult:
    """Everything the software source produces for one program."""

    package_bytes: bytes
    package: ProgramPackage
    program: Program
    encrypted: EncryptedProgram
    timings: PackagingTimings
    config: EricConfig
    plain_size: int = 0

    @property
    def package_size(self) -> int:
        return len(self.package_bytes)

    @property
    def size_increase_fraction(self) -> float:
        """Fig. 5: (package - plain) / plain."""
        if self.plain_size == 0:
            return 0.0
        return (self.package_size - self.plain_size) / self.plain_size


@dataclass(frozen=True)
class CompiledArtifact:
    """The device-independent half of the software-source flow.

    Compilation, signature generation and encryption-map selection depend
    only on ``(source, config)`` — never on the target device — so one
    artifact can be bound to any number of device keys with
    :meth:`EricCompiler.package_artifact`.  This is what the fleet
    artifact cache stores.
    """

    program: Program
    signature: bytes
    enc_map: EncryptionMap
    config: EricConfig
    name: str
    plain_size: int
    source_digest: str
    compile_s: float = 0.0
    signature_s: float = 0.0
    #: encryption-map slot selection; reported under encryption_s, where
    #: this work was always billed
    selection_s: float = 0.0


def source_digest(source: str) -> str:
    """Canonical cache identity of a source text (SHA-256 hex)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class EricCompiler:
    """Software-source side of ERIC (Fig. 4 left half).

    ``policy`` layers declarative per-region protection on top of the
    base ``config``: the effective configuration (mode/cipher/flag
    overrides) is computed once here, obfuscation runs in
    :meth:`prepare`, and the encryption map in :meth:`prepare_program`
    honors the policy's region rules.
    """

    def __init__(self, config: EricConfig | None = None,
                 policy=None) -> None:
        base = (config or EricConfig()).validate()
        self.policy = policy.validate() if policy is not None else None
        self.config = (self.policy.effective_config(base)
                       if self.policy is not None else base)

    def compile_baseline(self, source: str, name: str = "program",
                         ) -> tuple[CompileResult, float]:
        """Plain compile (no ERIC); returns the result and wall seconds."""
        start = time.perf_counter()
        result = compile_source(source, name=name,
                                optimize=self.config.optimize,
                                compress=self.config.compress)
        return result, time.perf_counter() - start

    def prepare(self, source: str, name: str = "program",
                ) -> CompiledArtifact:
        """Steps ②-③ up to the device boundary: compile, sign, select.

        Everything here is a pure function of ``(source, config,
        policy)``; the result can be cached and re-bound to any device
        key.  A policy's obfuscate rules are applied here: the
        generated assembly is rewritten (opaque-predicate insertion)
        and re-assembled — label-based text, so every branch and
        address constant re-resolves around the inserted code — before
        signing sees the program.  The rewrite time is billed to
        ``compile_s``: it is compilation work the protected flow pays
        and the baseline does not.
        """
        compile_result, compile_s = self.compile_baseline(source, name)
        program = compile_result.program
        if self.policy is not None and self.policy.obfuscate:
            from repro.asm.assembler import assemble
            from repro.policy.opaque import insert_opaque_predicates

            start = time.perf_counter()
            rewritten = insert_opaque_predicates(compile_result.asm_text,
                                                 self.policy)
            program = assemble(rewritten.asm_text, name=name,
                               compress=self.config.compress)
            compile_s += time.perf_counter() - start
        return self.prepare_program(program, name=name,
                                    compile_s=compile_s,
                                    digest=source_digest(source))

    def prepare_program(self, program: Program, name: str = "program",
                        compile_s: float = 0.0, digest: str = "",
                        ) -> CompiledArtifact:
        """Build the device-independent artifact for a compiled program."""
        config = self.config
        start = time.perf_counter()
        signature = compute_signature(program,
                                      include_data=config.sign_data)
        signature_s = time.perf_counter() - start
        start = time.perf_counter()
        if self.policy is not None and self.policy.encrypt:
            from repro.policy.policy import build_policy_map
            enc_map = build_policy_map(program, self.policy, config)
        else:
            enc_map = build_map(program, config)
        selection_s = time.perf_counter() - start
        return CompiledArtifact(
            program=program, signature=signature, enc_map=enc_map,
            config=config, name=name,
            plain_size=len(program.serialize_plain()),
            source_digest=digest, compile_s=compile_s,
            signature_s=signature_s, selection_s=selection_s,
        )

    def package_artifact(self, artifact: CompiledArtifact,
                         target_key: bytes) -> EricCompileResult:
        """Step ④ for one device: encrypt + package under its key.

        This is the only per-device work in the whole software-source
        flow; a fleet deployment calls it once per device while paying
        :meth:`prepare` exactly once.
        """
        if len(target_key) != 32:
            raise ConfigError(
                "target_key must be the device's 32-byte PUF-based key")
        config = artifact.config
        program = artifact.program
        timings = PackagingTimings(compile_s=artifact.compile_s,
                                   signature_s=artifact.signature_s)

        start = time.perf_counter()
        kmu = KeyManagementUnit(target_key)
        text_cipher = kmu.text_cipher(config.cipher)
        signature_cipher = kmu.signature_cipher(config.cipher)
        encrypted = encrypt_program(program, config, text_cipher,
                                    signature_cipher, artifact.signature,
                                    enc_map=artifact.enc_map)
        data_payload = program.data
        if config.encrypt_data and program.data:
            data_payload = kmu.data_cipher(config.cipher).transform(
                program.data, 0)
        timings.encryption_s = (artifact.selection_s
                                + time.perf_counter() - start)

        start = time.perf_counter()
        package = ProgramPackage(
            mode=config.mode, cipher=config.cipher,
            field_classes=(config.field_classes
                           if config.mode.value == "field" else ()),
            entry=program.entry, text_base=program.text_base,
            data_base=program.data_base, enc_text=encrypted.ciphertext,
            data=data_payload, enc_map=encrypted.enc_map,
            enc_signature=encrypted.enc_signature,
            data_signed=config.sign_data,
            data_encrypted=config.encrypt_data,
        )
        package_bytes = package.serialize()
        timings.packaging_s = time.perf_counter() - start

        return EricCompileResult(
            package_bytes=package_bytes, package=package, program=program,
            encrypted=encrypted, timings=timings, config=config,
            plain_size=artifact.plain_size,
        )

    def package_program(self, program: Program, target_key: bytes,
                        timings: PackagingTimings | None = None,
                        ) -> EricCompileResult:
        """Steps ③-④ for an already-compiled program.

        A caller-supplied ``timings`` is populated in place (and becomes
        the result's ``timings``), preserving the pre-split contract.
        """
        compile_s = timings.compile_s if timings else 0.0
        artifact = self.prepare_program(program, compile_s=compile_s)
        result = self.package_artifact(artifact, target_key)
        if timings is not None:
            timings.signature_s = result.timings.signature_s
            timings.encryption_s = result.timings.encryption_s
            timings.packaging_s = result.timings.packaging_s
            result.timings = timings
        return result

    def compile_and_package(self, source: str, target_key: bytes,
                            name: str = "program") -> EricCompileResult:
        """The full software-source flow: steps ②-④ of Fig. 3."""
        artifact = self.prepare(source, name)
        return self.package_artifact(artifact, target_key)
