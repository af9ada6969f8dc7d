//! Loaded images: a compiled program with every method pre-decoded.
//!
//! A [`ProgramImage`] is what the compiler emits; a [`LoadedImage`] is the
//! same program after the one-time decode work — each method's instruction
//! stream lowered to the interpreter's fast-path form and its constant
//! table pre-classed. Bodies are position-independent (no memory
//! addresses), so a `LoadedImage` is immutable and shareable: wrap it in an
//! [`std::sync::Arc`] and any number of machines can be booted from it via
//! [`Machine::boot`](crate::Machine::boot) without compiling
//! or decoding anything — each machine only stores the code words into its
//! own object space and binds the shared bodies to the stored addresses.
//!
//! This is the engine-level substrate of the `com-vm` embedding facade
//! (one image, many cheap tenant sessions).

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use com_cache::FxBuildHasher;
use com_fpa::{Fpa, FpaFormat};
use com_isa::OpcodeTable;
use com_mem::{AbsAddr, ClassId, ObjectSpace, TeamId};
use com_obj::{AtomTable, ClassTable, DefinedMethod, Itlb, ItlbKey, MethodRef};

use crate::machine::{push_decoded, Decoded, DecodedBody};
use crate::{Machine, MachineConfig, MachineError, ProgramImage};

/// A fully pre-booted machine state for one space geometry: the image's
/// code objects already stored into a pristine object space, the class
/// table already populated with resolved method references, and the
/// decoded-method slab laid out. Booting a session from the template is a
/// handful of clones — no allocation walk, no dictionary installs, no
/// decoding.
///
/// The class, selector and atom tables are held behind [`Arc`]s, and every
/// machine booted from the template shares them: a machine only reads
/// them, until [`Machine::load`] replaces them or
/// [`Machine::intern_selector`] copies the selector table to add a name.
/// What a machine writes (its space, slab, caches and statistics) is its
/// own: the space and slab are cloned per boot.
///
/// The template is geometry-specific (address format + space size); a
/// machine with a different geometry takes the store-per-method path
/// instead.
#[derive(Debug)]
pub(crate) struct BootTemplate {
    pub(crate) format: FpaFormat,
    pub(crate) space_log2: u8,
    /// The pre-stored space. Behind a mutex only so the template stays
    /// `Sync` (the space's bounds-check memo is interior-mutable); boots
    /// take the lock briefly to clone.
    pub(crate) space: Mutex<ObjectSpace>,
    pub(crate) classes: Arc<ClassTable>,
    pub(crate) atoms: Arc<AtomTable>,
    pub(crate) opcodes: Arc<OpcodeTable>,
    pub(crate) context_class: ClassId,
    pub(crate) code_roots: Vec<Fpa>,
    /// The decoded-method slab, bound to the template space's code.
    pub(crate) slab: Vec<Decoded>,
    /// Code virtual base → slab slot.
    pub(crate) index: HashMap<u64, u32, FxBuildHasher>,
}

impl BootTemplate {
    fn build(
        image: &ProgramImage,
        bodies: &[Option<Arc<DecodedBody>>],
        format: FpaFormat,
        space_log2: u8,
    ) -> Result<BootTemplate, MachineError> {
        let mut space = ObjectSpace::new(space_log2, format);
        let mut code_roots = Vec::new();
        let mut slab = Vec::new();
        let mut index: HashMap<u64, u32, FxBuildHasher> = HashMap::default();
        let (classes, context_class) = store_and_install(
            &mut space,
            TeamId(0),
            image,
            |i| bodies[i].clone(),
            &mut code_roots,
            |base, abs, body| push_decoded(&mut slab, &mut index, Decoded { base, abs, body }),
        )?;
        Ok(BootTemplate {
            format,
            space_log2,
            space: Mutex::new(space),
            classes: Arc::new(classes),
            atoms: Arc::new(image.atoms.clone()),
            opcodes: Arc::new(image.opcodes.clone()),
            context_class,
            code_roots,
            slab,
            index,
        })
    }
}

/// A machine's state right after it was booted from an image and its ITLB
/// was seeded ([`Machine::preseed_itlb`]), kept so that more machines can
/// start from it: [`Machine::boot_seeded`] gives each one a copy of the
/// seeded ITLB (contents, each set's recency order and counters), of the slab
/// entries the seeding decoded and of the space, and shares the image's
/// tables, so it is bit-identical to a machine booted and seeded on its
/// own without repeating a lookup.
#[derive(Debug)]
pub struct SeededBoot {
    pub(crate) config: MachineConfig,
    pub(crate) template: BootTemplate,
    pub(crate) itlb: Option<Itlb>,
}

impl SeededBoot {
    /// Boots one machine from `loaded` with `config`, seeds its ITLB with
    /// `keys` and keeps the state it is then in.
    ///
    /// # Errors
    ///
    /// As [`Machine::boot`].
    pub fn new(
        config: MachineConfig,
        loaded: &LoadedImage,
        keys: &[ItlbKey],
    ) -> Result<SeededBoot, MachineError> {
        let mut m = Machine::boot(config, loaded)?;
        m.preseed_itlb(keys);
        Ok(m.into_seeded_boot())
    }
}

/// The class contexts take in a machine running `classes`: the table's
/// `Context`, defined under `Object` when the table has none.
pub(crate) fn context_class_in(classes: &mut ClassTable) -> ClassId {
    let name = "Context";
    match classes.by_name(name) {
        Some(c) => c,
        None => classes
            .define(name, Some(ClassTable::OBJECT), 0)
            .expect("name free"),
    }
}

/// The class table a machine running `image` dispatches over, and the
/// class its contexts take: the image's classes, with `Context` defined
/// under `Object` when the image has no class of that name, then image
/// method *i* installed as `method(i)`, in image order, so the last install
/// of a (class, selector) pair wins. Every boot path builds its machine's
/// table here, and a static analysis that does the same with entries of
/// its own asks the table the machine asks.
///
/// # Errors
///
/// [`MachineError::UndefinedClass`] for the first method whose class the
/// image does not define (before `method` is asked for it), or the first
/// error `method` returns.
pub fn install_image(
    image: &ProgramImage,
    mut method: impl FnMut(usize) -> Result<DefinedMethod, MachineError>,
) -> Result<(ClassTable, ClassId), MachineError> {
    let mut classes = image.classes.clone();
    let context = context_class_in(&mut classes);
    for (i, m) in image.methods.iter().enumerate() {
        if image.classes.get(m.class).is_none() {
            return Err(MachineError::UndefinedClass {
                method: i,
                class: m.class,
            });
        }
        classes.install(m.class, m.selector, MethodRef::Defined(method(i)?));
    }
    Ok((classes, context))
}

/// The one boot sequence for storing an image's methods into a machine's
/// space: [`install_image`], where each method's entry comes from storing
/// its code object, pinning it as a GC root and binding its shared
/// pre-decoded body (when one exists) into the caller's slab via `bind`,
/// so the entry is installed pre-resolved. The template build,
/// `Machine::boot`'s store-per-method path and `Machine::load` run exactly
/// this function, so the boot paths cannot drift.
pub(crate) fn store_and_install(
    space: &mut ObjectSpace,
    team: TeamId,
    image: &ProgramImage,
    body_of: impl Fn(usize) -> Option<Arc<DecodedBody>>,
    code_roots: &mut Vec<Fpa>,
    mut bind: impl FnMut(Fpa, AbsAddr, Arc<DecodedBody>) -> u32,
) -> Result<(ClassTable, ClassId), MachineError> {
    install_image(image, |i| {
        let code = &image.methods[i].code;
        let base = code.store(space, team)?;
        code_roots.push(base);
        let dm = DefinedMethod::new(base, code.n_args);
        let Some(body) = body_of(i) else {
            return Ok(dm);
        };
        let base = base.base();
        let abs = space.translate(team, base)?.abs;
        Ok(dm.resolved(bind(base, abs, body)))
    })
}

/// An immutable, shareable compiled program: the [`ProgramImage`] plus a
/// pre-decoded body for every method that can be decoded
/// position-independently, plus a pre-booted boot template (space with
/// code stored, installed class table, decoded slab) for the prepared
/// machine geometry.
#[derive(Debug)]
pub struct LoadedImage {
    image: ProgramImage,
    /// Parallel to `image.methods`: `None` when the method's constants
    /// need a machine to classify (pointer constants) and the owning
    /// machine must decode lazily instead.
    bodies: Vec<Option<Arc<DecodedBody>>>,
    /// Pre-booted state for the prepared geometry (absent only if the
    /// image cannot be stored in a space of that geometry, or installs a
    /// method into a class it does not define).
    template: Option<BootTemplate>,
}

impl LoadedImage {
    /// Pre-decodes every method of `image` and pre-boots the default
    /// machine geometry. This is the one-time cost that
    /// [`Machine::boot`](crate::Machine::boot) amortises
    /// across machines.
    pub fn prepare(image: ProgramImage) -> LoadedImage {
        Self::prepare_for(image, &MachineConfig::default())
    }

    /// [`prepare`](Self::prepare) with the template pre-booted for
    /// `config`'s space geometry (sessions booting with a different
    /// geometry still work — they take the store-per-method path).
    pub fn prepare_for(image: ProgramImage, config: &MachineConfig) -> LoadedImage {
        let bodies: Vec<Option<Arc<DecodedBody>>> = image
            .methods
            .iter()
            .map(|m| DecodedBody::from_code(&m.code).map(Arc::new))
            .collect();
        let template = BootTemplate::build(&image, &bodies, config.format, config.space_log2).ok();
        LoadedImage {
            image,
            bodies,
            template,
        }
    }

    /// The pre-booted template, when it matches the asked-for geometry.
    pub(crate) fn template_for(&self, format: FpaFormat, space_log2: u8) -> Option<&BootTemplate> {
        self.template
            .as_ref()
            .filter(|t| t.format == format && t.space_log2 == space_log2)
    }

    /// The underlying compiled program.
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    /// Number of methods in the image.
    pub fn methods(&self) -> usize {
        self.image.methods.len()
    }

    /// Number of methods with a shared pre-decoded body (the rest decode
    /// lazily, per machine).
    pub fn predecoded(&self) -> usize {
        self.bodies.iter().filter(|b| b.is_some()).count()
    }

    /// The shared body for method `i`, if it decoded position-independently.
    pub(crate) fn body(&self, i: usize) -> Option<Arc<DecodedBody>> {
        self.bodies.get(i).and_then(|b| b.clone())
    }
}

impl From<ProgramImage> for LoadedImage {
    fn from(image: ProgramImage) -> Self {
        LoadedImage::prepare(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use com_isa::{Assembler, Opcode, Operand};
    use com_mem::{ClassId, Word};

    fn sample_image() -> ProgramImage {
        let mut img = ProgramImage::empty();
        let sel = img.opcodes.intern("double").unwrap();
        let mut asm = Assembler::new("SmallInteger>>double", 1);
        let k2 = asm.intern_const(Word::Int(2)).unwrap();
        asm.emit_three(
            Opcode::MUL,
            Operand::Cur(2),
            Operand::Cur(1),
            Operand::Const(k2),
        )
        .unwrap();
        asm.emit_three_ret(
            Opcode::MOVE,
            Operand::Cur(0),
            Operand::Cur(2),
            Operand::Cur(2),
        )
        .unwrap();
        img.add_method(ClassId::SMALL_INT, sel, asm.finish().unwrap());
        img
    }

    #[test]
    fn prepare_predecodes_every_plain_method() {
        let li = LoadedImage::prepare(sample_image());
        assert_eq!(li.methods(), 1);
        assert_eq!(li.predecoded(), 1);
        assert!(li.body(0).is_some());
        assert!(li.body(1).is_none());
    }

    #[test]
    fn a_method_on_an_undefined_class_is_a_typed_refusal() {
        let mut img = sample_image();
        img.methods[0].class = ClassId(300);
        let refusal = Err(MachineError::UndefinedClass {
            method: 0,
            class: ClassId(300),
        });
        assert_eq!(install_image(&img, |_| unreachable!()).map(drop), refusal);
        // Preparing the image builds no template; booting from it and
        // loading it both refuse it.
        let li = LoadedImage::prepare_for(img.clone(), &MachineConfig::default());
        assert!(li.template.is_none());
        assert_eq!(
            Machine::boot(MachineConfig::default(), &li).map(drop),
            refusal
        );
        let mut m = Machine::new(MachineConfig::default());
        assert_eq!(m.load(&img), refusal);
    }

    #[test]
    fn loaded_image_is_send_and_sync() {
        fn assert_shareable<T: Send + Sync>() {}
        assert_shareable::<LoadedImage>();
    }
}
